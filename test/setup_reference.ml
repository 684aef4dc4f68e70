(* Set-up kernels kept in their plain form, as references for the
   production ones:

   - [hash_key]: FNV-1a with the state in a ref captured by a closure,
     as [Id.hash_key] was written before it became two plain loops;
   - [dijkstra]: a textbook Dijkstra over [Graph.iter_neighbors] with
     a [Set] as its priority queue, blind to the zero-weight quotient
     [Graph.dijkstra] runs on;
   - [prng_int]: [Prng.int] as a closure-form rejection loop over a
     boxed [int64] bound, as it was written before it became a
     top-level loop that allocates nothing;
   - [generate_graphs]: [Transit_stub.generate]'s edges added to one
     single-weight builder per metric and frozen twice, as it did
     before both metrics shared one builder, its coin flips written
     [unit_float rng < p];
   - [draw_ids] and [join_all]: [Dht.join_all]'s ids drawn one at a
     time against a [Hashtbl] of the ids drawn before, and the ring
     sorted as records through a closure, as it did before the radix
     sort.

   test_prop checks that each production kernel agrees with its
   reference exactly. *)

module Prng = P2plb_prng.Prng
module Graph = P2plb_topology.Graph
module Transit_stub = P2plb_topology.Transit_stub

let hash_key salt s =
  let fnv_prime = 0x100000001B3L in
  let h = ref 0xCBF29CE484222325L in
  let step byte =
    h := Int64.logxor !h (Int64.of_int (byte land 0xff));
    h := Int64.mul !h fnv_prime
  in
  step salt;
  step (salt lsr 8);
  step (salt lsr 16);
  step (salt lsr 24);
  String.iter (fun c -> step (Char.code c)) s;
  let folded = Int64.logxor !h (Int64.shift_right_logical !h 32) in
  Int64.to_int folded land (P2plb_idspace.Id.space_size - 1)

(* Rejection sampling on the top range multiple of [bound], over the
   raw draw's high 63 bits. *)
let prng_int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound <= 0";
  let bound = Int64.of_int bound in
  let rec go () =
    let raw = Int64.shift_right_logical (Prng.bits64 t) 1 in
    let v = Int64.rem raw bound in
    if Int64.(compare (sub raw v) (sub (sub max_int bound) 1L)) > 0 then go ()
    else v
  in
  Int64.to_int (go ())

module Frontier = Set.Make (struct
  type t = int * int

  let compare (d, v) (d', v') =
    match Int.compare d d' with 0 -> Int.compare v v' | c -> c
end)

let dijkstra g ~src =
  let dist = Array.make (Graph.n_vertices g) max_int in
  dist.(src) <- 0;
  let frontier = ref (Frontier.singleton (0, src)) in
  while not (Frontier.is_empty !frontier) do
    let ((d, u) as top) = Frontier.min_elt !frontier in
    frontier := Frontier.remove top !frontier;
    Graph.iter_neighbors g u (fun v w ->
        if d + w < dist.(v) then begin
          if dist.(v) < max_int then
            frontier := Frontier.remove (dist.(v), v) !frontier;
          dist.(v) <- d + w;
          frontier := Frontier.add (d + w, v) !frontier
        end)
  done;
  dist

(* Each draw's id, one draw at a time in draw order: the first
   [hash ~draw ~salt], salt = 0, 1, ..., that misses every id drawn
   before it. *)
let draw_ids ~hash n =
  let drawn = Hashtbl.create n in
  let ids = Array.make n 0 in
  for draw = 0 to n - 1 do
    let rec go salt =
      let id = hash ~draw ~salt in
      if Hashtbl.mem drawn id then go (salt + 1) else id
    in
    ids.(draw) <- go 0;
    Hashtbl.add drawn ids.(draw) ()
  done;
  ids

(* The ring [Dht.join_all] builds for nodes [0 .. n_nodes - 1] of
   [n_vs] VSs each, draw [node * n_vs + index] being the node's
   [index]-th VS: the (id, owner) pairs in ring order, and each node's
   VS ids in its [vss] order (latest joined first). *)
let join_all ~n_nodes ~n_vs =
  let hash ~draw ~salt =
    P2plb_idspace.Id.hash_key
      (((draw / n_vs) * 131) + (draw mod n_vs) + (salt * 1_000_003))
      "vs"
  in
  let ids = draw_ids ~hash (n_nodes * n_vs) in
  let ring = Array.mapi (fun draw id -> (id, draw / n_vs)) ids in
  Array.sort (fun (a, _) (b, _) -> Int.compare a b) ring;
  let vss =
    Array.init n_nodes (fun node ->
        List.init n_vs (fun i -> ids.((node * n_vs) + n_vs - 1 - i)))
  in
  (ring, vss)

(* [Transit_stub.generate]'s draws and edges, verbatim but for the
   vertex roles, which draw nothing; returns the hop graph and the
   latency graph. *)
open Transit_stub

let add_edge (hop, lat) u v ~hop_w ~lat_w =
  Graph.add_edge hop u v ~weight:hop_w;
  Graph.add_edge lat u v ~weight:lat_w

let connect_random rng builders vertices ~edge_prob ~intra_lat =
  let k = Array.length vertices in
  if k > 1 then begin
    let order = Array.copy vertices in
    Prng.shuffle rng order;
    for i = 1 to k - 1 do
      let j = Prng.int rng i in
      add_edge builders order.(i) order.(j) ~hop_w:intradomain_weight
        ~lat_w:intra_lat
    done;
    for i = 0 to k - 2 do
      for j = i + 1 to k - 1 do
        if Prng.unit_float rng < edge_prob then
          add_edge builders vertices.(i) vertices.(j) ~hop_w:intradomain_weight
            ~lat_w:intra_lat
      done
    done
  end

let generate_graphs rng p =
  let n_transit = p.transit_domains * p.transit_nodes_per_domain in
  let n_stub_domains = n_transit * p.stub_domains_per_transit in
  let stub_size _ =
    if p.mean_stub_size = 1 then 1
    else Prng.int_in rng ~lo:1 ~hi:((2 * p.mean_stub_size) - 1)
  in
  let stub_sizes = Array.init n_stub_domains stub_size in
  let n_stub = Array.fold_left ( + ) 0 stub_sizes in
  let n = n_transit + n_stub in
  let builders = (Graph.create_builder ~n, Graph.create_builder ~n) in

  (* Latency weight of one interdomain edge: base hop weight plus
     GT-ITM-style per-edge jitter, scaled to RTT magnitude. *)
  let interdomain_lat ~hop_w =
    let jitter =
      if p.interdomain_weight_spread <= 0 then 0
      else Prng.int rng ((p.interdomain_weight_spread * p.rtt_scale / 4) + 1)
    in
    (hop_w * p.rtt_scale) + jitter
  in

  (* Vertices [0, n_transit) are transit nodes, domain-major. *)
  let transit_vertex ~domain ~i = (domain * p.transit_nodes_per_domain) + i in
  (* Intra-transit-domain connectivity.  These links are WAN links
     between backbone routers: hop metric 1 (intradomain, per the
     paper), latency scaled like any long-haul link. *)
  for domain = 0 to p.transit_domains - 1 do
    let vs =
      Array.init p.transit_nodes_per_domain (fun i -> transit_vertex ~domain ~i)
    in
    let k = Array.length vs in
    if k > 1 then begin
      let order = Array.copy vs in
      Prng.shuffle rng order;
      for i = 1 to k - 1 do
        let j = Prng.int rng i in
        add_edge builders order.(i) order.(j) ~hop_w:intradomain_weight
          ~lat_w:(interdomain_lat ~hop_w:intradomain_weight)
      done;
      for i = 0 to k - 2 do
        for j = i + 1 to k - 1 do
          if Prng.unit_float rng < p.transit_edge_prob then
            add_edge builders vs.(i) vs.(j) ~hop_w:intradomain_weight
              ~lat_w:(interdomain_lat ~hop_w:intradomain_weight)
        done
      done
    end
  done;

  (* Inter-transit-domain connectivity: random spanning tree over the
     domains plus per-pair random extras; each domain-level edge lands
     on random transit nodes of the two domains. *)
  let random_transit_of domain =
    transit_vertex ~domain ~i:(Prng.int rng p.transit_nodes_per_domain)
  in
  let add_interdomain u v =
    add_edge builders u v ~hop_w:interdomain_weight
      ~lat_w:(interdomain_lat ~hop_w:interdomain_weight)
  in
  if p.transit_domains > 1 then begin
    let order = Array.init p.transit_domains (fun d -> d) in
    Prng.shuffle rng order;
    for i = 1 to p.transit_domains - 1 do
      let j = Prng.int rng i in
      add_interdomain (random_transit_of order.(i)) (random_transit_of order.(j))
    done;
    for a = 0 to p.transit_domains - 2 do
      for b = a + 1 to p.transit_domains - 1 do
        if Prng.unit_float rng < p.top_edge_prob then
          add_interdomain (random_transit_of a) (random_transit_of b)
      done
    done
  end;

  (* Stub domains: vertices [n_transit, n), one attachment edge up to
     their transit node. *)
  let next = ref n_transit in
  let stub_domain = ref 0 in
  for tv = 0 to n_transit - 1 do
    for _ = 1 to p.stub_domains_per_transit do
      let size = stub_sizes.(!stub_domain) in
      let vs = Array.init size (fun i -> !next + i) in
      next := !next + size;
      connect_random rng builders vs ~edge_prob:p.stub_edge_prob
        ~intra_lat:p.intra_latency;
      add_edge builders (Prng.choose rng vs) tv ~hop_w:p.attachment_weight
        ~lat_w:(interdomain_lat ~hop_w:p.attachment_weight);
      incr stub_domain
    done
  done;
  assert (!next = n);

  let hop, lat = builders in
  (Graph.freeze hop, Graph.freeze lat)
