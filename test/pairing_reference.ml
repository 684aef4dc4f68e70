(* The Set-based reference of the stable rule, kept as the model for
   the array-backed lib/core/pairing.ml.

   The production pools are flat sorted arrays with scratch-buffer
   reuse; their contract is that every observable — entry orders,
   pairing decisions, merge re-sequencing, the leftover's encounter
   order — is EXACTLY what this implementation produces.  test_prop
   drives both on random cases (with deliberate equal-load /
   equal-deficit ties) and checks agreement. *)

module Types = P2plb.Types
module Dht = P2plb_chord.Dht

(* Test fixtures' shed records carry handles on a real ring: [vs i] is
   the only VS of node [i] of one fixed ring of 2048 nodes, so distinct
   [i] in [0, 2048) give distinct VSs. *)
let fixture_ring =
  lazy
    (let dht : unit Dht.t = Dht.create ~seed:1 in
     Dht.join_all dht (Array.init 2048 (fun i -> (1.0, i))) ~n_vs:1;
     dht)

let vs i = List.hd (Dht.node (Lazy.force fixture_ring) i).Dht.vss

(* Light slots, ordered by (deficit, tie-break id) so we can query the
   smallest deficit >= a given load in O(log n). *)
module Light_set = Set.Make (struct
  type t = float * int * Types.node_id (* deficit, seq, node *)

  let compare (d1, s1, n1) (d2, s2, n2) =
    match Float.compare d1 d2 with
    | 0 -> ( match Int.compare s1 s2 with 0 -> Int.compare n1 n2 | c -> c)
    | c -> c
end)

(* Shed VSs, ordered by (load desc, tie-break). *)
module Shed_set = Set.Make (struct
  type t = float * int * Types.shed_vs (* load, seq, record *)

  let compare (l1, s1, _) (l2, s2, _) =
    match Float.compare l2 l1 with 0 -> Int.compare s1 s2 | c -> c
end)

type pool = { shed : Shed_set.t; lights : Light_set.t; next_seq : int }

let empty = { shed = Shed_set.empty; lights = Light_set.empty; next_seq = 0 }

let add_shed p (s : Types.shed_vs) =
  {
    p with
    shed = Shed_set.add (s.vs_load, p.next_seq, s) p.shed;
    next_seq = p.next_seq + 1;
  }

let add_light p (l : Types.light_slot) =
  {
    p with
    lights = Light_set.add (l.deficit, p.next_seq, l.light_node) p.lights;
    next_seq = p.next_seq + 1;
  }

let of_entries sheds lights =
  let p = List.fold_left add_shed empty sheds in
  List.fold_left add_light p lights

let merge a b =
  (* Re-sequence [b]'s entries above [a]'s to keep seqs unique. *)
  let p = ref a in
  Shed_set.iter (fun (_, _, s) -> p := add_shed !p s) b.shed;
  Light_set.iter
    (fun (deficit, _, light_node) -> p := add_light !p { deficit; light_node })
    b.lights;
  !p

let shed_entries p = List.map (fun (_, _, s) -> s) (Shed_set.elements p.shed)

let light_entries p =
  List.map
    (fun (deficit, _, light_node) -> Types.{ deficit; light_node })
    (Light_set.elements p.lights)

let pair ?(depth = 0) ~l_min p =
  let assignments = ref [] in
  let unpaired_shed = ref [] in
  let lights = ref p.lights in
  let next_seq = ref p.next_seq in
  (* Heaviest-first over the shed VSs. *)
  Shed_set.iter
    (fun (load, _, s) ->
      (* Smallest light deficit that still fits this VS, skipping slots
         of the shedding node itself (moving a VS to its own host would
         be a no-op transfer). *)
      let found = ref None in
      let probe_d = ref load and probe_sq = ref min_int in
      let continue = ref true in
      while !continue do
        match
          Light_set.find_first_opt
            (fun (d, sq, _) ->
              match Float.compare d !probe_d with
              | 0 -> sq >= !probe_sq
              | c -> c > 0)
            !lights
        with
        | Some (d, sq, n) ->
          if n = s.Types.heavy_node then begin
            probe_d := d;
            probe_sq := sq + 1
          end
          else begin
            found := Some (d, sq, n);
            continue := false
          end
        | None -> continue := false
      done;
      match !found with
      | Some ((deficit, _, light_node) as slot) ->
        lights := Light_set.remove slot !lights;
        assignments :=
          Types.
            {
              a_vs = s.vs;
              a_load = s.vs_load;
              a_from = s.heavy_node;
              a_to = light_node;
              a_depth = depth;
            }
          :: !assignments;
        let residual = deficit -. load in
        if residual >= l_min then begin
          lights := Light_set.add (residual, !next_seq, light_node) !lights;
          incr next_seq
        end
      | None -> unpaired_shed := s :: !unpaired_shed)
    p.shed;
  let leftover =
    List.fold_left add_shed
      { shed = Shed_set.empty; lights = !lights; next_seq = !next_seq }
      (List.rev !unpaired_shed)
  in
  (List.rev !assignments, leftover)

(* The original list path from records to a leaf pool of the
   array-backed {!P2plb.Pairing}: a fold over the reverse-arrival
   record list splitting sheds from lights, each category reversed
   back to arrival order, then [of_entries].  The VSA hot path feeds
   [Pairing.of_slices] from scratch buffers instead; test_prop pins
   their agreement. *)
let pool_of_records records =
  let sheds, lights =
    List.fold_left
      (fun (ss, ls) r ->
        match r with
        | Types.Shed s -> (s :: ss, ls)
        | Types.Light l -> (ss, l :: ls))
      ([], []) records
  in
  P2plb.Pairing.of_entries sheds lights
