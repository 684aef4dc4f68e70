(* Property-based tests over the harness in prop.ml.

   Three algebraic cores of the balancing scheme get randomised
   coverage here: the wrap-around interval algebra of Region, the
   minimality contract of Excess.choose_shed, and load conservation
   through Pairing.pair.  Every property is driven by the in-tree
   Prop harness (seeded from lib/prng), so a failure reproduces from
   the printed case seed alone. *)

module Id = P2plb_idspace.Id
module Region = P2plb_idspace.Region
module Excess = P2plb.Excess
module Pairing = P2plb.Pairing
module Types = P2plb.Types
module Dht = P2plb_chord.Dht
module Vs_draw = P2plb_chord.Vs_draw
module Store = P2plb_chord.Store
module Ktree = P2plb_ktree.Ktree
module Obs = P2plb_obs.Obs
module Trace = P2plb_obs.Trace
module Prng = P2plb_prng.Prng

(* ---- Region: wrap-around interval algebra ------------------------------- *)

(* (start, len, offset): an arbitrary arc and an arbitrary ring point
   expressed as a clockwise offset from the arc's start — the offset
   form makes the expected answer a single integer comparison. *)
let region_point =
  Prop.triple
    (Prop.int_in 0 (Id.space_size - 1))
    (Prop.int_in 0 Id.space_size)
    (Prop.int_in 0 (Id.space_size - 1))

let prop_region_contains (start, len, k) =
  let r = Region.make ~start:(Id.of_int start) ~len in
  Bool.equal (Region.contains r (Id.add (Id.of_int start) k)) (k < len)

(* (start, len, parts) for the split laws. *)
let region_split =
  Prop.triple
    (Prop.int_in 0 (Id.space_size - 1))
    (Prop.int_in 0 Id.space_size)
    (Prop.int_in 1 8)

let prop_region_split_partitions (start, len, k) =
  let r = Region.make ~start:(Id.of_int start) ~len in
  let parts = Region.split r k in
  let lens = Array.to_list (Array.map Region.len parts) in
  let total = List.fold_left ( + ) 0 lens in
  let lo = List.fold_left Int.min Id.space_size lens in
  let hi = List.fold_left Int.max 0 lens in
  let consecutive = ref (Array.length parts = k) in
  for i = 0 to Array.length parts - 2 do
    let expected =
      Id.add (Region.start parts.(i)) (Region.len parts.(i))
    in
    if not (Id.equal (Region.start parts.(i + 1)) expected) then
      consecutive := false
  done;
  Array.length parts = k
  && total = len
  && hi - lo <= 1
  && Id.equal (Region.start parts.(0)) (Region.start r)
  && !consecutive
  && Array.for_all (fun p -> Region.covers ~outer:r ~inner:p) parts

(* Every contained point lands in exactly one part of a split. *)
let prop_region_split_disjoint (start, len, (k, joff)) =
  if len = 0 then true
  else begin
    let r = Region.make ~start:(Id.of_int start) ~len in
    let parts = Region.split r k in
    let pt = Id.add (Id.of_int start) (joff mod len) in
    let hits =
      Array.fold_left
        (fun acc p -> if Region.contains p pt then acc + 1 else acc)
        0 parts
    in
    hits = 1
  end

let region_split_point =
  Prop.triple
    (Prop.int_in 0 (Id.space_size - 1))
    (Prop.int_in 0 Id.space_size)
    (Prop.pair (Prop.int_in 1 8) (Prop.int_in 0 (Id.space_size - 1)))

let test_region_contains () =
  Prop.run ~seed:0x5eed01 ~name:"region wrap-around containment"
    region_point prop_region_contains

let test_region_split () =
  Prop.run ~seed:0x5eed02 ~name:"region split partitions"
    region_split prop_region_split_partitions

let test_region_split_disjoint () =
  Prop.run ~seed:0x5eed03 ~name:"region split parts are disjoint"
    region_split_point prop_region_split_disjoint

(* ---- Excess: shed-choice minimality ------------------------------------- *)

(* 1..8 strictly positive VS loads (inside the exact-enumeration
   regime, exact_threshold = 16) and a need expressed as a fraction of
   the total, allowed to exceed what keep_at_least = 1 can cover. *)
let excess_case =
  Prop.pair
    (Prop.list_of ~min_len:1 ~max_len:8 (Prop.float_in 0.05 1.0))
    (Prop.float_in 0.0 1.5)

let prop_excess_minimal (loads, frac) =
  let n = List.length loads in
  let total = List.fold_left ( +. ) 0.0 loads in
  let need = frac *. total in
  let arr = Array.of_list (List.mapi (fun i l -> (Id.of_int i, l)) loads) in
  let chosen = Excess.choose_shed ~loads:arr need in
  let st = Excess.shed_total chosen in
  let ids = List.map fst chosen in
  let distinct =
    List.length (List.sort_uniq Id.compare ids) = List.length ids
  in
  let from_input =
    List.for_all
      (fun (id, l) ->
        Array.exists
          (fun (id', l') -> Id.equal id id' && Float.equal l l')
          arr)
      chosen
  in
  let keeps_one = List.length chosen <= n - 1 in
  let contract =
    if Float.compare need 0.0 <= 0 then List.is_empty chosen
    else if Float.compare st need >= 0 then
      (* Covered: the chosen set is minimal — dropping any member
         leaves the node heavy again. *)
      List.for_all (fun (_, l) -> Float.compare (st -. l) need < 0) chosen
    else
      (* Infeasible under keep_at_least = 1: best effort sheds the
         largest allowed subset, i.e. all but one VS. *)
      List.length chosen = n - 1
  in
  distinct && from_input && keeps_one && contract

let test_excess_minimal () =
  Prop.run ~seed:0x5eed04 ~name:"choose_shed minimality & best-effort"
    excess_case prop_excess_minimal

(* ---- Pairing: load conservation ----------------------------------------- *)

(* Arbitrary offered VSs and light slots.  l_min is pinned at the
   generator's load floor so every offered VS is eligible. *)
let pairing_case =
  Prop.pair
    (Prop.list_of ~max_len:12 (Prop.float_in 0.05 1.0))
    (Prop.list_of ~max_len:12 (Prop.float_in 0.05 2.0))

let prop_pairing_conserves (shed_loads, deficits) =
  let sheds =
    List.mapi
      (fun i l ->
        {
          Types.vs_load = l;
          vs = Pairing_reference.vs (1000 + i);
          heavy_node = i;
        })
      shed_loads
  in
  let lights =
    List.mapi
      (fun i d -> { Types.deficit = d; light_node = 100 + i })
      deficits
  in
  let pool = Pairing.of_entries sheds lights in
  let assignments, residual = Pairing.pair ~l_min:0.05 pool in
  let placed =
    List.fold_left (fun acc a -> acc +. a.Types.a_load) 0.0 assignments
  in
  let residual_shed =
    List.fold_left
      (fun acc (s : Types.shed_vs) -> acc +. s.vs_load)
      0.0
      (Pairing.shed_entries residual)
  in
  let offered = List.fold_left ( +. ) 0.0 shed_loads in
  (* Shed-side conservation: every offered unit of load is either
     placed by an assignment or still waiting in the residual pool.
     (The light side is *not* conserved: residual deficits below l_min
     are dropped by design.) *)
  let conserved =
    Float.compare
      (Float.abs (offered -. (placed +. residual_shed)))
      1e-9
    < 0
  in
  let vs_ids = List.map (fun a -> a.Types.a_vs.Dht.vs_id) assignments in
  let assigned_once =
    List.length (List.sort_uniq Id.compare vs_ids) = List.length vs_ids
  in
  let counts_add_up =
    List.length assignments + Pairing.n_shed residual
    = List.length shed_loads
  in
  let endpoints_from_input =
    List.for_all
      (fun (a : Types.assignment) ->
        List.exists
          (fun (s : Types.shed_vs) ->
            s.vs == a.a_vs
            && Float.equal s.vs_load a.a_load
            && s.heavy_node = a.a_from)
          sheds
        && List.exists
             (fun (l : Types.light_slot) -> l.light_node = a.a_to)
             lights)
      assignments
  in
  conserved && assigned_once && counts_add_up && endpoints_from_input

let test_pairing_conserves () =
  Prop.run ~seed:0x5eed05 ~name:"pairing conserves shed load"
    pairing_case prop_pairing_conserves

(* ---- Pairing: array-backed pools agree with the Set-based reference ----- *)

(* The production pools are flat sorted arrays (lib/core/pairing.ml);
   pairing_reference.ml retains the original Set-based implementation.
   Every observable must agree exactly — including tie-breaks, so loads
   and deficits are drawn from a small discrete grid to force equal
   keys. *)

let discrete_load =
  Prop.make
    ~print:(Printf.sprintf "%.17g")
    (fun rng -> float_of_int (P2plb_prng.Prng.int_in rng ~lo:1 ~hi:6) /. 8.0)

let mk_sheds base loads =
  List.mapi
    (fun i l ->
      {
        Types.vs_load = l;
        vs = Pairing_reference.vs (base + i);
        heavy_node = base + i;
      })
    loads

let mk_lights base deficits =
  List.mapi
    (fun i d -> { Types.deficit = d; light_node = base + i })
    deficits

let shed_entries_equal a b =
  List.equal
    (fun (x : Types.shed_vs) (y : Types.shed_vs) ->
      Float.equal x.vs_load y.vs_load
      && x.vs == y.vs
      && Int.equal x.heavy_node y.heavy_node)
    a b

let light_entries_equal a b =
  List.equal
    (fun (x : Types.light_slot) (y : Types.light_slot) ->
      Float.equal x.deficit y.deficit && Int.equal x.light_node y.light_node)
    a b

let assignments_equal a b =
  List.equal
    (fun (x : Types.assignment) (y : Types.assignment) ->
      x.a_vs == y.a_vs
      && Float.equal x.a_load y.a_load
      && Int.equal x.a_from y.a_from
      && Int.equal x.a_to y.a_to
      && Int.equal x.a_depth y.a_depth)
    a b

let pools_agree prod ref_ =
  shed_entries_equal (Pairing.shed_entries prod)
    (Pairing_reference.shed_entries ref_)
  && light_entries_equal (Pairing.light_entries prod)
       (Pairing_reference.light_entries ref_)

let ref_pair_case =
  Prop.pair
    (Prop.list_of ~max_len:10 discrete_load)
    (Prop.list_of ~max_len:10 discrete_load)

let prop_pair_agrees_with_reference (shed_loads, deficits) =
  let sheds = mk_sheds 0 shed_loads and lights = mk_lights 50 deficits in
  let prod = Pairing.of_entries sheds lights in
  let ref_ = Pairing_reference.of_entries sheds lights in
  pools_agree prod ref_
  &&
  let pa, pl = Pairing.pair ~depth:3 ~l_min:0.125 prod in
  let ra, rl = Pairing_reference.pair ~depth:3 ~l_min:0.125 ref_ in
  assignments_equal pa ra && pools_agree pl rl

let ref_merge_case =
  Prop.pair
    (Prop.pair
       (Prop.list_of ~max_len:6 discrete_load)
       (Prop.list_of ~max_len:6 discrete_load))
    (Prop.pair
       (Prop.list_of ~max_len:6 discrete_load)
       (Prop.list_of ~max_len:6 discrete_load))

let prop_merge_agrees_with_reference ((s1, d1), (s2, d2)) =
  let prod_a = Pairing.of_entries (mk_sheds 0 s1) (mk_lights 50 d1) in
  let prod_b = Pairing.of_entries (mk_sheds 100 s2) (mk_lights 150 d2) in
  let ref_a =
    Pairing_reference.of_entries (mk_sheds 0 s1) (mk_lights 50 d1)
  in
  let ref_b =
    Pairing_reference.of_entries (mk_sheds 100 s2) (mk_lights 150 d2)
  in
  let prod = Pairing.merge prod_a prod_b in
  let ref_ = Pairing_reference.merge ref_a ref_b in
  pools_agree prod ref_
  &&
  (* A merge then a pairing — the bottom-up sweep's exact sequence. *)
  let pa, pl = Pairing.pair ~l_min:0.125 prod in
  let ra, rl = Pairing_reference.pair ~l_min:0.125 ref_ in
  assignments_equal pa ra && pools_agree pl rl

(* Merging with an empty pool, on either side, returns the other pool
   as it is; equal loads and deficits make any reordering visible, and
   a pairing after the merge must still agree. *)
let ref_merge_empty_case =
  Prop.pair
    (Prop.list_of ~min_len:2 ~max_len:8 discrete_load)
    (Prop.list_of ~min_len:2 ~max_len:8 discrete_load)

let prop_merge_empty_agrees (loads, deficits) =
  let sheds = mk_sheds 0 loads and lights = mk_lights 50 deficits in
  let prod = Pairing.of_entries sheds lights in
  let ref_ = Pairing_reference.of_entries sheds lights in
  List.for_all
    (fun (p, r) ->
      pools_agree p r
      &&
      let pa, pl = Pairing.pair ~l_min:0.125 p in
      let ra, rl = Pairing_reference.pair ~l_min:0.125 r in
      assignments_equal pa ra && pools_agree pl rl)
    [
      (Pairing.merge Pairing.empty prod,
       Pairing_reference.merge Pairing_reference.empty ref_);
      (Pairing.merge prod Pairing.empty,
       Pairing_reference.merge ref_ Pairing_reference.empty);
    ]

(* The VSA hot path partitions each leaf's arrival-ordered record slice
   into shed/light scratch buffers and calls Pairing.of_slices; the
   retained list path (Pairing_reference.pool_of_records) folds the
   same records through of_entries.  Both must build identical
   pools. *)
let vsa_record_case =
  Prop.list_of ~max_len:14 (Prop.pair (Prop.int_in 0 1) discrete_load)

let prop_vsa_grouping_agrees tagged =
  let records =
    List.mapi
      (fun i (kind, x) ->
        if kind = 0 then
          Types.Shed
            {
              Types.vs_load = x;
              vs = Pairing_reference.vs (1000 + i);
              heavy_node = i;
            }
        else Types.Light { Types.deficit = x; light_node = 500 + i })
      tagged
  in
  (* Reference: reverse-arrival list, as the per-leaf Hashtbl held it. *)
  let ref_pool = Pairing_reference.pool_of_records (List.rev records) in
  (* Production: arrival-ordered scratch-buffer prefixes. *)
  let sheds =
    Array.of_list
      (List.filter_map
         (fun (r : Types.vsa_record) ->
           match r with Types.Shed s -> Some s | Types.Light _ -> None)
         records)
  in
  let lights =
    Array.of_list
      (List.filter_map
         (fun (r : Types.vsa_record) ->
           match r with Types.Light l -> Some l | Types.Shed _ -> None)
         records)
  in
  let prod_pool =
    Pairing.of_slices sheds (Array.length sheds) lights (Array.length lights)
  in
  shed_entries_equal (Pairing.shed_entries prod_pool)
    (Pairing.shed_entries ref_pool)
  && light_entries_equal
       (Pairing.light_entries prod_pool)
       (Pairing.light_entries ref_pool)
  &&
  let pa, _ = Pairing.pair ~l_min:0.125 prod_pool in
  let ra, _ = Pairing.pair ~l_min:0.125 ref_pool in
  assignments_equal pa ra

let test_pair_agrees_with_reference () =
  Prop.run ~seed:0x5eed06 ~name:"array pairing = Set reference (pair)"
    ref_pair_case prop_pair_agrees_with_reference

let test_merge_agrees_with_reference () =
  Prop.run ~seed:0x5eed07 ~name:"array pairing = Set reference (merge)"
    ref_merge_case prop_merge_agrees_with_reference

let test_merge_empty_agrees () =
  Prop.run ~seed:0x5eed0c ~name:"array pairing = Set reference (merge empty)"
    ref_merge_empty_case prop_merge_empty_agrees

let test_vsa_grouping_agrees () =
  Prop.run ~seed:0x5eed08 ~name:"VSA slice grouping = list reference"
    vsa_record_case prop_vsa_grouping_agrees

(* Re-pairing a leftover: [pair] marks its leftover settled and pairs a
   settled pool to itself, without the loop.
   Sheds and lights share a few nodes, so a shed can be left unpaired
   with a fitting slot of its own node in the pool, and loads sit on the
   discrete grid, so equal-load runs are common.  Three passes against
   the Set reference, only the first of which may pair anything; then
   the leftover merged with fresh lights, on either side, which must
   pair again as the reference does. *)
let ref_repair_case =
  Prop.triple
    (Prop.list_of ~max_len:12 (Prop.pair (Prop.int_in 0 3) discrete_load))
    (Prop.list_of ~max_len:8 (Prop.pair (Prop.int_in 0 5) discrete_load))
    (Prop.list_of ~min_len:1 ~max_len:4 discrete_load)

let prop_repair_agrees_with_reference (sheds, lights, fresh) =
  let sheds =
    List.mapi
      (fun i (heavy_node, vs_load) ->
        { Types.vs_load; vs = Pairing_reference.vs (100 + i); heavy_node })
      sheds
  in
  let lights =
    List.map
      (fun (light_node, d) -> { Types.deficit = 2.0 *. d; light_node })
      lights
  in
  let fresh = mk_lights 50 fresh in
  let pair_agrees pass prod ref_ =
    let pa, pl = Pairing.pair ~depth:pass ~l_min:0.125 prod in
    let ra, rl =
      Pairing_reference.pair ~depth:pass ~l_min:0.125 ref_
    in
    (assignments_equal pa ra && pools_agree pl rl, pa, pl, rl)
  in
  let rec passes pass prod ref_ =
    if pass > 3 then
      let fp = Pairing.of_entries [] fresh in
      let fr = Pairing_reference.of_entries [] fresh in
      let ok_a, _, _, _ =
        pair_agrees 4 (Pairing.merge prod fp) (Pairing_reference.merge ref_ fr)
      in
      let ok_b, _, _, _ =
        pair_agrees 4 (Pairing.merge fp prod) (Pairing_reference.merge fr ref_)
      in
      ok_a && ok_b
    else
      let ok, pa, pl, rl = pair_agrees pass prod ref_ in
      ok && (pass = 1 || List.is_empty pa) && passes (pass + 1) pl rl
  in
  passes 1
    (Pairing.of_entries sheds lights)
    (Pairing_reference.of_entries sheds lights)

let test_repair_agrees_with_reference () =
  Prop.run ~seed:0x5eed0e ~name:"re-pairing a leftover = Set reference"
    ref_repair_case prop_repair_agrees_with_reference

(* The same two properties on pools of up to 400 entries per side, on
   the same grid: every size the pool sort meets, from one insertion
   run to several merge levels, with runs of hundreds of equal keys.
   The re-pairing case leaves long unpaired runs, so its later passes
   take the settled path on them. *)
let ref_pair_large_case =
  Prop.pair
    (Prop.list_of ~max_len:400 discrete_load)
    (Prop.list_of ~max_len:400 discrete_load)

let ref_repair_large_case =
  Prop.triple
    (Prop.list_of ~max_len:400 (Prop.pair (Prop.int_in 0 3) discrete_load))
    (Prop.list_of ~max_len:200 (Prop.pair (Prop.int_in 0 5) discrete_load))
    (Prop.list_of ~min_len:1 ~max_len:40 discrete_load)

let test_pair_agrees_large () =
  Prop.run ~count:60 ~seed:0x5eed32
    ~name:"array pairing = Set reference (pair, up to 400)"
    ref_pair_large_case prop_pair_agrees_with_reference

let test_repair_agrees_large () =
  Prop.run ~count:60 ~seed:0x5eed33
    ~name:"re-pairing a leftover = Set reference (up to 400)"
    ref_repair_large_case prop_repair_agrees_with_reference

(* ---- Ktree: the ring-version contract ----------------------------------- *)

(* Ring mutations and ring-neutral updates; [arg] picks the node, VS,
   load or key the operation touches.  The last three write loads too:
   a join at chosen ids, a load increment, and a Store hand-off (a
   fresh store of a few objects whose sizes become the primaries'
   loads). *)
type ring_op =
  | Join of int
  | Crash of int
  | Remove_vs of int
  | Transfer_vs of int
  | Set_vs_load of int
  | Put of int
  | Join_ids of int
  | Add_vs_load of int
  | Store_handoff of int

let ring_op_name = function
  | Join a -> Printf.sprintf "Join %d" a
  | Crash a -> Printf.sprintf "Crash %d" a
  | Remove_vs a -> Printf.sprintf "Remove_vs %d" a
  | Transfer_vs a -> Printf.sprintf "Transfer_vs %d" a
  | Set_vs_load a -> Printf.sprintf "Set_vs_load %d" a
  | Put a -> Printf.sprintf "Put %d" a
  | Join_ids a -> Printf.sprintf "Join_ids %d" a
  | Add_vs_load a -> Printf.sprintf "Add_vs_load %d" a
  | Store_handoff a -> Printf.sprintf "Store_handoff %d" a

(* Operations of the first [kinds] kinds, in the order above. *)
let ring_op_in ~kinds =
  let of_pair (kind, a) =
    match kind with
    | 0 -> Join a
    | 1 -> Crash a
    | 2 -> Remove_vs a
    | 3 -> Transfer_vs a
    | 4 -> Set_vs_load a
    | 5 -> Put a
    | 6 -> Join_ids a
    | 7 -> Add_vs_load a
    | _ -> Store_handoff a
  in
  let to_pair = function
    | Join a -> (0, a)
    | Crash a -> (1, a)
    | Remove_vs a -> (2, a)
    | Transfer_vs a -> (3, a)
    | Set_vs_load a -> (4, a)
    | Put a -> (5, a)
    | Join_ids a -> (6, a)
    | Add_vs_load a -> (7, a)
    | Store_handoff a -> (8, a)
  in
  let p = Prop.pair (Prop.int_in 0 (kinds - 1)) (Prop.int_in 0 1_000_000) in
  Prop.make ~print:ring_op_name
    ~shrink:(fun op -> List.map of_pair (p.Prop.shrink (to_pair op)))
    (fun rng -> of_pair (p.Prop.gen rng))

let ring_op = ring_op_in ~kinds:6

(* (physical nodes, K = 2 or 8, operations). *)
let ktree_case =
  Prop.triple (Prop.int_in 16 512) (Prop.int_in 0 1)
    (Prop.list_of ~max_len:10 ring_op)

let ring_ids dht = Dht.fold_vs dht ~init:[] ~f:(fun acc v -> v.Dht.vs_id :: acc)

let nth_vs dht a =
  let n = Dht.n_vs dht in
  let i = a mod n in
  fst
    (Dht.fold_vs dht ~init:(None, 0) ~f:(fun (found, j) v ->
         ((if j = i then Some v else found), j + 1)))
  |> Option.get

(* [item] is what a [Put] stores. *)
let apply_ring_op_with ~item dht op =
  let node a = Dht.alive_nth dht (a mod Dht.n_nodes dht) in
  (* A departure that would empty the ring is skipped. *)
  let can_depart (n : Dht.node) = List.length n.Dht.vss < Dht.n_vs dht in
  match op with
  | Join a ->
    ignore
      (Dht.join dht ~capacity:1.0 ~underlay:0 ~n_vs:(1 + (a mod 3)))
  | Crash a ->
    let n = node a in
    if Dht.n_nodes dht > 1 && can_depart n then Dht.crash dht n.Dht.node_id
  | Remove_vs a ->
    if Dht.n_vs dht > 1 then Dht.remove_vs dht (nth_vs dht a)
  | Transfer_vs a ->
    Dht.transfer_vs dht (nth_vs dht a) ~to_node:(node (a / 7)).Dht.node_id
  | Set_vs_load a ->
    Dht.set_vs_load dht (nth_vs dht a) (float_of_int (a mod 1000) /. 100.0)
  | Put a ->
    ignore
      (Dht.put dht ~from:(nth_vs dht a).Dht.vs_id ~key:(Id.of_int a) item)
  | Join_ids a ->
    let ids = [| a * 4241; ((a * 7919) + 13) mod Id.space_size |] in
    if ids.(0) <> ids.(1)
       && Array.for_all (fun id -> Dht.vs_of_id dht id = None) ids
    then ignore (Dht.join_ids dht ~capacity:2.0 ~underlay:0 ids)
  | Add_vs_load a ->
    Dht.add_vs_load dht (nth_vs dht a) (float_of_int (a mod 1000) /. 300.0)
  | Store_handoff a ->
    let st = Store.create ~replication:2 () in
    for j = 0 to a mod 5 do
      Store.insert st dht
        ~key:(Id.hash_key (a + j) "obj")
        ~size:(float_of_int ((a + j) mod 37) /. 3.0)
    done;
    Store.apply_primary_loads st dht

let apply_ring_op dht op = apply_ring_op_with ~item:() dht op

(* The cached whole-tree figures against a fresh preorder fold: sizes,
   per-host node counts, and the deepest-first leaf table numbered in
   preorder. *)
let summary_matches_fold tree dht =
  (* Slots are numbered when the summary is built. *)
  let assignment = Ktree.leaf_assignment tree in
  let nodes, depth, leaves =
    Ktree.fold_nodes tree ~init:(0, 0, 0) ~f:(fun (n, d, l) kn ->
        ( n + 1,
          Int.max d (Ktree.node_depth tree kn),
          if Ktree.is_leaf tree kn then l + 1 else l ))
  in
  let per_host = Hashtbl.create 64 in
  let deepest = Hashtbl.create 64 in
  Ktree.fold_nodes tree ~init:() ~f:(fun () kn ->
      let h = Ktree.host tree kn in
      Hashtbl.replace per_host h
        (1 + Option.value ~default:0 (Hashtbl.find_opt per_host h));
      if Ktree.is_leaf tree kn then
        match Hashtbl.find_opt deepest h with
        | Some e when Ktree.node_depth tree e >= Ktree.node_depth tree kn -> ()
        | _ -> Hashtbl.replace deepest h kn);
  let slots_ok, n_slots =
    Ktree.fold_nodes tree ~init:(true, 0) ~f:(fun (ok, next) kn ->
        let winner =
          Ktree.is_leaf tree kn
          && (match Hashtbl.find_opt deepest (Ktree.host tree kn) with
             | Some w -> w = kn
             | None -> false)
        in
        if winner then (ok && Ktree.leaf_slot tree kn = next, next + 1)
        else (ok && Ktree.leaf_slot tree kn = -1, next))
  in
  Ktree.n_nodes tree = nodes
  && Ktree.depth tree = depth
  && Ktree.n_leaves tree = leaves
  && Hashtbl.length assignment = Hashtbl.length deepest
  && slots_ok
  && Ktree.n_leaf_slots tree = n_slots
  (* Every KT host is a live VS on a consistent tree. *)
  && Dht.fold_vs dht ~init:true ~f:(fun ok v ->
         let id = v.Dht.vs_id in
         ok
         && Ktree.host_nodes tree id
            = Option.value ~default:0 (Hashtbl.find_opt per_host id)
         &&
         match (Hashtbl.find_opt assignment id, Hashtbl.find_opt deepest id) with
         | Some a, Some w -> a = w
         | None, None -> true
         | _ -> false)

let prop_ktree_version_contract (n_nodes, k_sel, ops) =
  let dht = Dht.create ~seed:n_nodes in
  for i = 0 to n_nodes - 1 do
    let nid = Dht.join dht ~capacity:1.0 ~underlay:0 ~n_vs:(1 + (i mod 3)) in
    List.iter
      (fun v -> Dht.set_vs_load dht v (float_of_int ((i * 7) mod 11)))
      (Dht.node dht nid).Dht.vss
  done;
  let tree = Ktree.build ~k:(if k_sel = 0 then 2 else 8) dht in
  let obs = Obs.create () in
  Ktree.set_obs tree obs;
  let rehosts () =
    List.length
      (List.filter
         (fun (e : Trace.ev) -> String.equal e.name "kt/rehost")
         (Trace.events (Obs.trace obs)))
  in
  let consistent () = Result.is_ok (Ktree.check_consistent tree dht) in
  (* At an unchanged ring version both walks are no-ops apart from
     refresh's heartbeats. *)
  let noop_repair () =
    let m = Ktree.messages tree and r = Ktree.repairs tree in
    let rm = Ktree.repair_messages tree in
    Ktree.repair tree dht = 0
    && Ktree.messages tree = m
    && Ktree.repairs tree = r
    && Ktree.repair_messages tree = rm
  in
  let noop_refresh () =
    let m = Ktree.messages tree and h = rehosts () in
    Ktree.refresh tree dht;
    Ktree.messages tree = m + Ktree.n_nodes tree - 1 && rehosts () = h
  in
  consistent () && summary_matches_fold tree dht
  && List.for_all
       (fun (i, op) ->
         let v0 = Dht.ring_version dht and ids0 = ring_ids dht in
         apply_ring_op dht op;
         let changed = ring_ids dht <> ids0 in
         let version_ok =
           if changed then Dht.ring_version dht <> v0
           else Dht.ring_version dht = v0
         in
         (* Odd steps repair first, even steps refresh first: the first
            walk meets the op's ring, the second an unchanged one. *)
         let walked_ok =
           (if i mod 2 = 1 then (
              let r = Ktree.repair tree dht in
              (changed || r = 0) && consistent () && noop_refresh ())
            else (
              let m = Ktree.messages tree in
              Ktree.refresh tree dht;
              (changed || Ktree.messages tree = m + Ktree.n_nodes tree - 1)
              && consistent () && noop_repair ()))
          && noop_repair () && noop_refresh ()
         in
         version_ok && walked_ok && consistent ()
         && summary_matches_fold tree dht)
       (List.mapi (fun i op -> (i, op)) ops)

let test_ktree_version_contract () =
  Prop.run ~count:40 ~seed:0x5eed09
    ~name:"ring version gates KT repair/refresh; cached summary = fold"
    ktree_case prop_ktree_version_contract

(* ---- Ktree: slice builder = DHT-driven reference ------------------------ *)

module Kref = Ktree_reference

(* (physical nodes, VSs per node, K = 2 / 3 / 8, operations). *)
let ktree_ref_case =
  Prop.pair
    (Prop.triple (Prop.int_in 1 512) (Prop.int_in 1 8) (Prop.int_in 0 2))
    (Prop.list_of ~max_len:10 ring_op)

(* [r]'s subtree and [n]'s: region, key, depth, host, leaf slot and
   children, recursively. *)
let rec same_node (r : Kref.node) t (n : Ktree.node) =
  Region.equal r.Kref.region (Ktree.region t n)
  && r.Kref.key = Ktree.key t n
  && r.Kref.depth = Ktree.node_depth t n
  && r.Kref.host = Ktree.host t n
  && r.Kref.tag = Ktree.leaf_slot t n
  && Array.for_all2
       (fun a b ->
         match (a, b) with
         | None, None -> true
         | Some a, Some b -> same_node a t b
         | _ -> false)
       r.Kref.children (Ktree.children t n)

(* Structure, summary figures, and per-VS leaf assignment and node
   counts; [r]'s summary must be current. *)
let trees_agree r t dht =
  (* Leaf slots are numbered when the summary is built. *)
  let assignment = Ktree.leaf_assignment t in
  same_node r.Kref.root t (Ktree.root t)
  && Ktree.depth t = r.Kref.depth
  && Ktree.n_nodes t = r.Kref.n_nodes
  && Ktree.n_leaves t = r.Kref.n_leaves
  && Ktree.n_leaf_slots t = r.Kref.n_slots
  && Hashtbl.length assignment = Hashtbl.length r.Kref.assignment
  && Dht.fold_vs dht ~init:true ~f:(fun ok v ->
         let id = v.Dht.vs_id in
         ok
         && Ktree.host_nodes t id = Kref.host_nodes r id
         &&
         match
           ( Hashtbl.find_opt assignment id,
             Hashtbl.find_opt r.Kref.assignment id )
         with
         | Some a, Some b ->
           Region.equal (Ktree.region t a) b.Kref.region
           && Ktree.node_depth t a = b.Kref.depth
           && Ktree.leaf_slot t a = b.Kref.tag
         | None, None -> true
         | _ -> false)

(* Both builders on the current ring. *)
let builders_agree ~k dht =
  let r = Kref.build ~k dht and t = Ktree.build ~k dht in
  trees_agree r t dht && Ktree.messages t = r.Kref.msg

(* Ids at which a binary tree's chains and regions turn on single bits:
   0 and 2^32 - 1, adjacent ids, pairs that differ only in bit 0, and,
   for each r in 0 .. 32, an id whose low bits are a run of exactly r
   ones.  High bits are drawn from [seed]; each candidate is kept with
   probability [keep] / 8 (at least one is), so sparse rings put the
   long runs at the end of deep chains. *)
let edge_ids ~seed ~keep =
  let rng = Prng.create ~seed in
  let draw () = Prng.int rng Id.space_size in
  let runs =
    List.init (Id.bits + 1) (fun r ->
        if r = Id.bits then Id.space_size - 1
        else Id.of_int ((draw () lsl (r + 1)) lor ((1 lsl r) - 1)))
  in
  let pairs f =
    List.concat
      (List.init 4 (fun _ ->
           let y = f () in
           [ y; y + 1 ]))
  in
  let adjacent = pairs (fun () -> Prng.int rng (Id.space_size - 1)) in
  let bit0 = pairs (fun () -> draw () land lnot 1) in
  let all =
    List.sort_uniq Int.compare
      ((0 :: (Id.space_size - 1) :: runs) @ adjacent @ bit0)
  in
  match List.filter (fun _ -> Prng.int rng 8 < keep) all with
  | [] -> [ List.hd all ]
  | kept -> kept

(* The edge ids of [(seed, keep, nodes)] dealt round-robin to up to
   [nodes] physical nodes of capacity 1, 2, 3, 4, 1, ... placed by
   [Dht.join_ids], node [i] on underlay vertex [i]. *)
let join_edge_ring dht (seed, keep, nodes) =
  let ids = edge_ids ~seed ~keep in
  let nodes = Int.min nodes (List.length ids) in
  for i = 0 to nodes - 1 do
    let mine = List.filteri (fun j _ -> j mod nodes = i) ids in
    ignore
      (Dht.join_ids dht
         ~capacity:(float_of_int (1 + (i mod 4)))
         ~underlay:i (Array.of_list mine))
  done

(* (seed, keep / 8, physical nodes) of an edge-id ring. *)
let edge_ring =
  Prop.triple (Prop.int_in 0 1_000_000) (Prop.int_in 1 8) (Prop.int_in 1 8)

(* (edge-id ring, (K = 2 / 3 / 8, operations)). *)
let ktree_edge_ref_case =
  Prop.pair edge_ring
    (Prop.pair (Prop.int_in 0 2) (Prop.list_of ~max_len:6 ring_op))

let prop_ktree_edge_matches_reference (ring, (k_sel, ops)) =
  let k = [| 2; 3; 8 |].(k_sel) in
  let dht = Dht.create ~seed:0 in
  join_edge_ring dht ring;
  let before = builders_agree ~k dht in
  List.iter (apply_ring_op dht) ops;
  before && builders_agree ~k dht

let prop_ktree_matches_reference ((n_nodes, vs, k_sel), ops) =
  let k = [| 2; 3; 8 |].(k_sel) in
  let dht = Dht.create ~seed:((n_nodes * 8) + vs) in
  for i = 0 to n_nodes - 1 do
    ignore (Dht.join dht ~capacity:1.0 ~underlay:i ~n_vs:vs)
  done;
  let before = builders_agree ~k dht in
  List.iter (apply_ring_op dht) ops;
  before && builders_agree ~k dht

let test_ktree_matches_reference () =
  Prop.run ~count:40 ~seed:0x5eed0a
    ~name:"slice-built KT = DHT-driven reference builder"
    ktree_ref_case prop_ktree_matches_reference;
  Prop.run ~count:60 ~seed:0x5eed14
    ~name:"slice-built KT = DHT-driven reference builder (edge ids)"
    ktree_edge_ref_case prop_ktree_edge_matches_reference

(* ---- Ktree: derived upkeep = pointer reference walks -------------------- *)

(* ((physical nodes, VSs per node, K = 2 / 3 / 8),
    (route_messages off / on, operations)). *)
let ktree_upkeep_case =
  Prop.pair
    (Prop.triple (Prop.int_in 1 512) (Prop.int_in 1 8) (Prop.int_in 0 2))
    (Prop.pair (Prop.int_in 0 1) (Prop.list_of ~max_len:10 ring_op))

(* The kt/rehost and kt/replant points in recording order, with their
   depth attributes. *)
let kt_events obs =
  List.filter_map
    (fun (e : Trace.ev) ->
      match (e.Trace.kind, e.Trace.name) with
      | Trace.Point, (("kt/rehost" | "kt/replant") as name) -> (
        match List.assoc_opt "depth" e.Trace.attrs with
        | Some (Trace.Int d) -> Some (name, d)
        | _ -> Some (name, -1))
      | _ -> None)
    (Trace.events (Obs.trace obs))

(* [f ()] with the routed lookups and hops it spent on [dht]. *)
let routed dht f =
  let l0 = Dht.lookups_performed dht and h0 = Dht.hops_used dht in
  let x = f () in
  (x, (Dht.lookups_performed dht - l0, Dht.hops_used dht - h0))

(* One long-lived tree of each kind on [dht].  Each op, applied by
   [apply tree dht op], is followed by refresh then repair, repair then
   refresh, or nothing (so the next walks meet two ops of churn).  A
   routed refresh issues its lookups from each node's current host, so
   it only runs after a repair has re-planted the nodes of departed
   VSs.  After every step the trees, their summaries, message / repair
   counters, [repair]'s return values and the ordered kt events must
   agree, and each build, refresh and repair must issue as many routed
   lookups, over as many hops, as its reference counterpart. *)
let upkeep_matches_reference ~k ~route_messages dht ~apply ops =
  let r, r_built = routed dht (fun () -> Kref.build ~route_messages ~k dht) in
  let t, t_built = routed dht (fun () -> Ktree.build ~route_messages ~k dht) in
  let obs = Obs.create () in
  Ktree.set_obs t obs;
  let agree () =
    Kref.summarize r;
    trees_agree r t dht
    && Ktree.messages t = r.Kref.msg
    && Ktree.repairs t = r.Kref.repaired
    && Ktree.repair_messages t = r.Kref.repair_msg
    && kt_events obs = Kref.events r
  in
  let repair () =
    let a, t_spent = routed dht (fun () -> Ktree.repair ~route_messages t dht) in
    let b, r_spent = routed dht (fun () -> Kref.repair ~route_messages r dht) in
    a = b && t_spent = r_spent && agree ()
  in
  let refresh () =
    let (), t_spent =
      routed dht (fun () -> Ktree.refresh ~route_messages t dht)
    in
    let (), r_spent =
      routed dht (fun () -> Kref.refresh ~route_messages r dht)
    in
    t_spent = r_spent && agree ()
  in
  t_built = r_built && agree ()
  && List.for_all
       (fun (i, op) ->
         apply t dht op;
         match i mod 3 with
         | 0 when not route_messages -> refresh () && repair ()
         | 0 | 1 -> repair () && refresh ()
         | _ -> true)
       (List.mapi (fun i op -> (i, op)) ops)

let prop_ktree_upkeep_matches_reference ((n_nodes, vs, k_sel), (routed_sel, ops))
    =
  let k = [| 2; 3; 8 |].(k_sel) and route_messages = routed_sel = 1 in
  let dht = Dht.create ~seed:((n_nodes * 8) + vs) in
  for i = 0 to n_nodes - 1 do
    ignore (Dht.join dht ~capacity:1.0 ~underlay:i ~n_vs:vs)
  done;
  upkeep_matches_reference ~k ~route_messages dht
    ~apply:(fun _ dht op -> apply_ring_op dht op)
    ops

let test_ktree_upkeep_matches_reference () =
  Prop.run ~count:30 ~seed:0x5eed0b
    ~name:"derived KT upkeep = pointer reference walks"
    ktree_upkeep_case prop_ktree_upkeep_matches_reference

(* Single-VS churn at the places where a walk decides to skip a
   subtree: remove the VS at, or crash the owner of, ring position 0,
   the last position or any; add one VS at id 0, at the last id of the
   id space, at the last point of a node of the tree as it stands, or
   at a hashed id.  [a mod 4] picks the place. *)
type edge_op = Remove_at of int | Crash_at of int | Add_at of int

let edge_op_name = function
  | Remove_at a -> Printf.sprintf "Remove_at %d" a
  | Crash_at a -> Printf.sprintf "Crash_at %d" a
  | Add_at a -> Printf.sprintf "Add_at %d" a

let edge_op =
  let of_pair (kind, a) =
    match kind with 0 -> Remove_at a | 1 -> Crash_at a | _ -> Add_at a
  in
  let to_pair = function
    | Remove_at a -> (0, a)
    | Crash_at a -> (1, a)
    | Add_at a -> (2, a)
  in
  let p = Prop.pair (Prop.int_in 0 2) (Prop.int_in 0 1_000_000) in
  Prop.make ~print:edge_op_name
    ~shrink:(fun op -> List.map of_pair (p.Prop.shrink (to_pair op)))
    (fun rng -> of_pair (p.Prop.gen rng))

let apply_edge_op tree dht op =
  let ids = Dht.vs_ids dht in
  let n = Array.length ids in
  let position a =
    match a mod 4 with 0 -> 0 | 1 -> n - 1 | _ -> a / 4 mod n
  in
  match op with
  | Remove_at a ->
    if n > 1 then
      Dht.remove_vs dht (Option.get (Dht.vs_of_id dht ids.(position a)))
  | Crash_at a ->
    let owner = (Option.get (Dht.vs_of_id dht ids.(position a))).Dht.owner in
    if Dht.can_depart dht owner then Dht.crash dht owner
  | Add_at a ->
    let id =
      match a mod 4 with
      | 0 -> 0
      | 1 -> Id.space_size - 1
      | 2 ->
        let m = a / 4 mod Ktree.n_nodes tree in
        snd
          (Ktree.fold_nodes tree ~init:(0, 0) ~f:(fun (i, last) c ->
               ( i + 1,
                 if i = m then Region.last (Ktree.region tree c) else last )))
      | _ -> Id.hash_key a "edge"
    in
    if Option.is_none (Dht.vs_of_id dht id) then
      ignore (Dht.join_ids dht ~capacity:1.0 ~underlay:0 [| id |])

(* ((physical nodes of 5 VSs, K = 2 / 3, route_messages off / on),
   single-VS ops). *)
let ktree_edge_case =
  Prop.pair
    (Prop.triple (Prop.int_in 256 512) (Prop.int_in 0 1) (Prop.int_in 0 1))
    (Prop.list_of ~min_len:1 ~max_len:6 edge_op)

let prop_ktree_upkeep_edges ((n_nodes, k_sel, routed_sel), ops) =
  let dht = Dht.create ~seed:n_nodes in
  Dht.join_all dht (Array.init n_nodes (fun i -> (1.0, i))) ~n_vs:5;
  upkeep_matches_reference ~k:[| 2; 3 |].(k_sel)
    ~route_messages:(routed_sel = 1) dht ~apply:apply_edge_op ops

let test_ktree_upkeep_edges () =
  Prop.run ~count:10 ~seed:0x5eed13
    ~name:"derived KT upkeep = reference walks at skip edges"
    ktree_edge_case prop_ktree_upkeep_edges

(* ---- Ktree: upkeep leaves the canonical tree ---------------------------- *)

(* Preorder (region start, length, depth, host, leafness, slot) of
   each kind of tree; [r]'s slots must be current. *)
let ktree_nodes t =
  List.rev
    (Ktree.fold_nodes t ~init:[] ~f:(fun acc n ->
         let region = Ktree.region t n in
         ( Region.start region,
           Region.len region,
           Ktree.node_depth t n,
           Ktree.host t n,
           Ktree.is_leaf t n,
           Ktree.leaf_slot t n )
         :: acc))

let kref_nodes r =
  let acc = ref [] in
  Kref.iter_nodes
    (fun (n : Kref.node) ->
      acc :=
        ( Region.start n.Kref.region,
          Region.len n.Kref.region,
          n.Kref.depth,
          n.Kref.host,
          Kref.is_leaf n,
          n.Kref.tag )
        :: !acc)
    r.Kref.root;
  List.rev !acc

(* A long-lived tree of each kind through churn: after every refresh
   or repair its nodes equal a fresh build's on the same ring.  For the
   reference this is what lets [Ktree] derive upkeep from the old and
   new id snapshots alone; for [Ktree] it holds by construction. *)
let prop_ktree_stays_canonical ((n_nodes, vs, k_sel), ops) =
  let k = [| 2; 3; 8 |].(k_sel) in
  let dht = Dht.create ~seed:((n_nodes * 8) + vs) in
  for i = 0 to n_nodes - 1 do
    ignore (Dht.join dht ~capacity:1.0 ~underlay:i ~n_vs:vs)
  done;
  let t = Ktree.build ~k dht and r = Kref.build ~k dht in
  let canonical () =
    Kref.summarize r;
    ktree_nodes t = ktree_nodes (Ktree.build ~k dht)
    && kref_nodes r = kref_nodes (Kref.build ~k dht)
  in
  List.for_all
    (fun (i, op) ->
      apply_ring_op dht op;
      if i mod 2 = 0 then begin
        Ktree.refresh t dht;
        Kref.refresh r dht
      end
      else begin
        ignore (Ktree.repair t dht);
        ignore (Kref.repair r dht)
      end;
      canonical ())
    (List.mapi (fun i op -> (i, op)) ops)

(* (physical nodes, VSs per node, K = 2 / 3 / 8), operations: smaller
   rings than [ktree_ref_case], as every step builds two fresh trees. *)
let ktree_canon_case =
  Prop.pair
    (Prop.triple (Prop.int_in 1 128) (Prop.int_in 1 4) (Prop.int_in 0 2))
    (Prop.list_of ~max_len:10 ring_op)

let test_ktree_stays_canonical () =
  Prop.run ~count:30 ~seed:0x5eed0d
    ~name:"refresh / repair leave a fresh build's tree"
    ktree_canon_case prop_ktree_stays_canonical

(* ---- Chord: one-search routing = greedy finger scan --------------------- *)

(* Chord's greedy router written on the public API alone: from [cur],
   either the successor owns the key, or the next hop is the first
   finger successor(cur + 2^k), k from 31 down, strictly inside
   (cur, key) — the 32-way scan [Dht.lookup] replaced. *)
let reference_lookup dht ~from ~key =
  let owner = Dht.owner_of_key dht key in
  if Id.equal owner.Dht.vs_id from then (owner.Dht.vs_id, 0)
  else
    let rec route cur hops =
      let succ = (Dht.owner_of_key dht (Id.add cur 1)).Dht.vs_id in
      if Id.in_range_excl_incl key ~lo:cur ~hi:succ then (succ, hops + 1)
      else
        let rec finger k =
          if k < 0 then succ
          else
            let f = (Dht.owner_of_key dht (Id.add cur (1 lsl k))).Dht.vs_id in
            if Id.in_range_excl_excl f ~lo:cur ~hi:key then f
            else finger (k - 1)
        in
        route (finger (Id.bits - 1)) (hops + 1)
    in
    route from 0

(* From every VS, look up a VS id, that id + 1, that id - 1 and a
   random key; owner, hops and the hop counter must match the
   reference. *)
let lookups_agree ~seed dht =
  let rng = P2plb_prng.Prng.create ~seed in
  let ids = Array.of_list (List.rev (ring_ids dht)) in
  let n = Array.length ids in
  let hops0 = Dht.hops_used dht in
  let total = ref 0 in
  let ok =
    Array.for_all
      (fun from ->
        let id = ids.(P2plb_prng.Prng.int rng n) in
        List.for_all
          (fun key ->
            let v, hops = Dht.lookup dht ~from ~key in
            let ref_owner, ref_hops = reference_lookup dht ~from ~key in
            total := !total + hops;
            Id.equal v.Dht.vs_id ref_owner && Int.equal hops ref_hops)
          [ id; Id.add id 1; Id.sub id 1;
            P2plb_prng.Prng.int rng Id.space_size ])
      ids
  in
  ok && Dht.hops_used dht - hops0 = !total

(* ((physical nodes, VSs per node), operations): the ring as built,
   then after the churn (joins, crashes, VS removals and
   transfers). *)
let lookup_case =
  Prop.pair
    (Prop.pair (Prop.int_in 1 96) (Prop.int_in 1 4))
    (Prop.list_of ~max_len:12 ring_op)

let prop_lookup_matches_reference ((n_nodes, vs), ops) =
  let dht = Dht.create ~seed:((n_nodes * 8) + vs) in
  for i = 0 to n_nodes - 1 do
    ignore (Dht.join dht ~capacity:1.0 ~underlay:i ~n_vs:vs)
  done;
  let before = lookups_agree ~seed:n_nodes dht in
  List.iter (apply_ring_op dht) ops;
  before && lookups_agree ~seed:(n_nodes + 1) dht

let test_lookup_matches_reference () =
  Prop.run ~count:60 ~seed:0x5eed0d
    ~name:"one-search lookup = greedy finger scan"
    lookup_case prop_lookup_matches_reference

(* Rings of one, two and three VSs, built directly and by shrinking a
   larger ring with remove_vs. *)
let test_lookup_small_rings () =
  for seed = 0 to 19 do
    for n_vs = 1 to 3 do
      let direct : unit Dht.t = Dht.create ~seed in
      ignore (Dht.join direct ~capacity:1.0 ~underlay:0 ~n_vs);
      let shrunk : unit Dht.t = Dht.create ~seed in
      for i = 0 to 3 do
        ignore (Dht.join shrunk ~capacity:1.0 ~underlay:i ~n_vs:2)
      done;
      while Dht.n_vs shrunk > n_vs do
        Dht.remove_vs shrunk (nth_vs shrunk seed)
      done;
      List.iter
        (fun dht ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %d, %d VSs" seed n_vs)
            true (lookups_agree ~seed dht))
        [ direct; shrunk ]
    done
  done

(* ---- Chord: bucket-indexed search = binary search ----------------------- *)

module Ring_index = P2plb_chord.Ring_index

(* The first of the ascending [ids.(lo .. hi-1)] that is >= k, or
   [hi], by a linear scan. *)
let scan_in ids k lo hi =
  let rec go i = if i < hi && ids.(i) < k then go (i + 1) else i in
  go lo

let scan_lower_bound ids n k = scan_in ids k 0 n

(* Bucket edges for every bucket width — k lsl s for k = 1, 3 and the
   largest k, s = 0 .. 31 — one either side, and both ends of the id
   space; [queries] drops the points past either end. *)
let edge_queries =
  List.sort_uniq Int.compare
    (0 :: (Id.space_size - 1)
    :: List.concat_map
         (fun s ->
           List.concat_map
             (fun k -> let e = k lsl s in [ e - 1; e; e + 1 ])
             [ 1; 3; (Id.space_size - 1) lsr s ])
         (List.init Id.bits Fun.id))

(* Every id, one either side of it, and the edges. *)
let queries ids =
  List.concat_map (fun i -> [ i - 1; i; i + 1 ]) (Array.to_list ids)
  @ edge_queries
  |> List.filter (fun k -> k >= 0 && k < Id.space_size)

(* The index against the scan at [queries ids] and [extra].  Dht's
   successor and strict predecessor are this lower bound, wrapped.
   Each query also checks [Ring_index.lower_bound_in], the search the
   index runs in a bucket and Vs_draw runs on its keys, against the
   scan of a random slice [lo, hi). *)
let index_agrees idx ~version ids extra =
  let n = Array.length ids in
  let rng = Prng.create ~seed:((n * 1000) + version) in
  List.for_all
    (fun k ->
      let lo = Prng.int rng (n + 1) in
      let hi = lo + Prng.int rng (n - lo + 1) in
      Int.equal
        (Ring_index.lower_bound idx ~version ids n k)
        (scan_lower_bound ids n k)
      && Int.equal (Ring_index.lower_bound_in ids k lo hi) (scan_in ids k lo hi))
    (extra @ queries ids)

(* A ring point: [a] rounded down to a multiple of 2^s for s <= 31 — a
   bucket edge for any width up to 2^s — else [a] itself; moved into
   the lowest or highest 2^16 ids when the ring is clustered, leaving
   most buckets empty. *)
let ring_point ~cluster (s, a) =
  let p = if s <= 31 then (a lsr s) lsl s else a in
  match cluster with
  | 1 -> p land 0xffff
  | 2 -> Id.space_size - 1 - (p land 0xffff)
  | _ -> p

let point = Prop.pair (Prop.int_in 0 40) (Prop.int_in 0 (Id.space_size - 1))

(* ((cluster: 0 spread, 1 low, 2 high; keep: the first 1-3 points, or
   all for 0, 4 and 5), points, inserts (0) and deletes (1)): one
   index over the whole run, checked after every change, so every
   check after the first meets a stale index. *)
let index_case =
  Prop.triple
    (Prop.pair (Prop.int_in 0 2) (Prop.int_in 0 5))
    (Prop.list_of ~min_len:1 ~max_len:300 point)
    (Prop.list_of ~max_len:12 (Prop.pair (Prop.int_in 0 1) point))

let prop_index_matches_scan ((cluster, keep), points, ops) =
  let sorted l = Array.of_list (List.sort_uniq Int.compare l) in
  let points = List.map (ring_point ~cluster) points in
  let points =
    if keep > 3 then points else List.filteri (fun i _ -> i < keep) points
  in
  let idx = Ring_index.create () in
  let ids = ref (sorted points) and version = ref 0 in
  index_agrees idx ~version:!version !ids []
  && List.for_all
       (fun (op, p) ->
         let p = ring_point ~cluster p in
         let n = Array.length !ids in
         (if op = 0 then ids := sorted (p :: Array.to_list !ids)
          else if n > 1 then
            ids :=
              Array.of_list
                (List.filteri (fun i _ -> i <> p mod n) (Array.to_list !ids)));
         incr version;
         index_agrees idx ~version:!version !ids [ p ])
       ops

let test_index_matches_scan () =
  Prop.run ~count:150 ~seed:0x5eed10 ~name:"indexed lower bound = scan"
    index_case prop_index_matches_scan

(* An index built over 512 ids, then asked about the same ring cut to
   1-3 ids in one step: its buckets far outnumber the ids left. *)
let test_index_after_shrink () =
  for seed = 0 to 19 do
    let rng = P2plb_prng.Prng.create ~seed in
    let big =
      Array.of_list
        (List.sort_uniq Int.compare
           (List.init 512 (fun _ -> P2plb_prng.Prng.int rng Id.space_size)))
    in
    let idx = Ring_index.create () in
    Alcotest.(check bool) "512 ids" true (index_agrees idx ~version:1 big []);
    for n = 1 to 3 do
      Alcotest.(check bool)
        (Printf.sprintf "seed %d, cut to %d" seed n)
        true
        (index_agrees idx ~version:(1 + n) (Array.sub big 0 n) [])
    done
  done

(* ((physical nodes, VSs per node), operations): [owner_of_key] — the
   ring's indexed successor — against the scan over [vs_ids], as built
   and after every churn step. *)
let prop_owner_matches_scan ((n_nodes, vs), ops) =
  let dht = Dht.create ~seed:((n_nodes * 8) + vs) in
  for i = 0 to n_nodes - 1 do
    ignore (Dht.join dht ~capacity:1.0 ~underlay:i ~n_vs:vs)
  done;
  let agrees () =
    let ids = Dht.vs_ids dht in
    let n = Array.length ids in
    List.for_all
      (fun k ->
        let i = scan_lower_bound ids n k in
        Id.equal (Dht.owner_of_key dht k).Dht.vs_id
          ids.(if i = n then 0 else i))
      (queries ids)
  in
  agrees ()
  && List.for_all
       (fun op ->
         apply_ring_op dht op;
         agrees ())
       ops

let test_owner_matches_scan () =
  Prop.run ~count:60 ~seed:0x5eed11 ~name:"indexed owner_of_key = scan"
    lookup_case prop_owner_matches_scan

(* ---- Chord: one-pass handoff = per-VS region queries --------------------- *)

(* ((physical nodes, VSs per node, ring cut to 1-3 VSs, else kept),
   puts).  A put's key is a VS id, that id + 1, a key in the first VS's
   wrapping region (past the largest id or at most the smallest), one
   of three fixed keys (so keys repeat), or a random point. *)
let handoff_case =
  Prop.pair
    (Prop.triple (Prop.int_in 1 48) (Prop.int_in 1 4) (Prop.int_in 0 5))
    (Prop.list_of ~max_len:40
       (Prop.pair (Prop.int_in 0 4) (Prop.int_in 0 (Id.space_size - 1))))

let prop_handoff_matches_regions ((n_nodes, vs, cut), puts) =
  let dht : int Dht.t = Dht.create ~seed:((n_nodes * 8) + vs) in
  for i = 0 to n_nodes - 1 do
    ignore (Dht.join dht ~capacity:1.0 ~underlay:i ~n_vs:vs)
  done;
  if cut >= 1 && cut <= 3 then
    while Dht.n_vs dht > cut do
      Dht.remove_vs dht (nth_vs dht n_nodes)
    done;
  let ids = Array.of_list (List.rev (ring_ids dht)) in
  let n = Array.length ids in
  let lo = ids.(0) and hi = ids.(n - 1) in
  let key (kind, a) =
    match kind with
    | 0 -> ids.(a mod n)
    | 1 -> Id.add ids.(a mod n) 1
    | 2 -> Id.add hi (1 + (a mod Int.max 1 (Id.distance_cw hi lo)))
    | 3 -> [| 0; 12345; Id.space_size - 1 |].(a mod 3)
    | _ -> a
  in
  List.iteri
    (fun i p -> ignore (Dht.put dht ~from:lo ~key:(key p) i))
    puts;
  let expected =
    List.concat_map
      (fun (v : Dht.vs) ->
        List.map
          (fun (k, p) -> (v.Dht.vs_id, k, p))
          (Dht.items_in_region dht (Dht.region_of_vs dht v)))
      (List.rev (Dht.fold_vs dht ~init:[] ~f:(fun acc v -> v :: acc)))
  in
  let drained = ref [] in
  Dht.drain_items dht ~f:(fun v k p ->
      drained := (v.Dht.vs_id, k, p) :: !drained);
  List.rev !drained = expected
  && List.length expected = List.length puts
  && Dht.items_in_region dht Region.whole = []

let test_handoff_matches_regions () =
  Prop.run ~count:150 ~seed:0x5eed0e
    ~name:"drain_items = items_in_region per owner, then empty"
    handoff_case prop_handoff_matches_regions

(* ---- Chord: a publish batch = one put at a time -------------------------- *)

(* ((physical nodes, VSs per node, ring cut to 1-3 VSs, else kept),
   (churn before the first batch, first batch), (churn between the
   batches, second batch)).  A put is (key kind, source kind, a, b):
   its key is drawn as in [handoff_case], so keys repeat, and its
   source is any VS, the VS just before the key (its predecessor) or
   the VS owning the key (0 hops). *)
let batch_put =
  Prop.pair
    (Prop.pair (Prop.int_in 0 4) (Prop.int_in 0 2))
    (Prop.pair (Prop.int_in 0 (Id.space_size - 1)) (Prop.int_in 0 1_000_000))

let batch_case =
  Prop.triple
    (Prop.triple (Prop.int_in 1 48) (Prop.int_in 1 4) (Prop.int_in 0 5))
    (Prop.pair
       (Prop.list_of ~max_len:8 ring_op)
       (Prop.list_of ~max_len:60 batch_put))
    (Prop.pair
       (Prop.list_of ~max_len:8 ring_op)
       (Prop.list_of ~max_len:60 batch_put))

(* Both rings take the same churn and the same puts: [batched] stages
   each batch and publishes it once, [single] routes each put by
   [Dht.lookup] (the per-put hops and counters) and stores it by
   [Dht.put].  Hops per put, the batch's total, both counters and the
   drained order must agree. *)
let prop_batch_matches_single ((n_nodes, vs, cut), (ops1, puts1), (ops2, puts2))
    =
  let build () =
    let dht : int Dht.t = Dht.create ~seed:((n_nodes * 8) + vs) in
    for i = 0 to n_nodes - 1 do
      ignore (Dht.join dht ~capacity:1.0 ~underlay:i ~n_vs:vs)
    done;
    if cut >= 1 && cut <= 3 then
      while Dht.n_vs dht > cut do
        Dht.remove_vs dht (nth_vs dht n_nodes)
      done;
    dht
  in
  let batched = build () and single = build () in
  let counters dht = (Dht.lookups_performed dht, Dht.hops_used dht) in
  let batch_agrees first puts =
    let ids = Array.of_list (List.rev (ring_ids single)) in
    let n = Array.length ids in
    let lo = ids.(0) and hi = ids.(n - 1) in
    let key kind a =
      match kind with
      | 0 -> ids.(a mod n)
      | 1 -> Id.add ids.(a mod n) 1
      | 2 -> Id.add hi (1 + (a mod Int.max 1 (Id.distance_cw hi lo)))
      | 3 -> [| 0; 12345; Id.space_size - 1 |].(a mod 3)
      | _ -> a
    in
    let puts =
      List.mapi
        (fun i ((kind, src), (a, b)) ->
          let key = key kind a in
          let owner = (Dht.owner_of_key single key).Dht.vs_id in
          let from =
            match src with
            | 0 -> ids.(b mod n)
            | 1 ->
              let oi = ref 0 in
              Array.iteri (fun j id -> if Id.equal id owner then oi := j) ids;
              ids.((!oi + n - 1) mod n)
            | _ -> owner
          in
          (from, key, first + i))
        puts
    in
    let l0, h0 = counters batched in
    List.iter (fun (from, key, p) -> Dht.stage batched ~from ~key p) puts;
    let hops = Array.make (List.length puts) (-1) in
    let total = Dht.publish ~hops batched in
    let l1, h1 = counters batched in
    List.for_all2
      (fun h (from, key, p) ->
        let before = counters single in
        let _, expected = Dht.lookup single ~from ~key in
        let after = counters single in
        ignore (Dht.put single ~from ~key p);
        h = expected && fst after - fst before = 1
        && snd after - snd before = h)
      (Array.to_list hops) puts
    && total = Array.fold_left ( + ) 0 hops
    && l1 - l0 = List.length puts
    && h1 - h0 = total
  in
  let drained dht =
    let acc = ref [] in
    Dht.drain_items dht ~f:(fun v k p -> acc := (v.Dht.vs_id, k, p) :: !acc);
    List.rev !acc
  in
  let churn ops =
    List.iter
      (fun op ->
        apply_ring_op_with ~item:(-1) batched op;
        apply_ring_op_with ~item:(-1) single op)
      ops
  in
  churn ops1;
  let ok1 = batch_agrees 0 puts1 in
  churn ops2;
  let ok2 = batch_agrees 1000 puts2 in
  ok1 && ok2 && drained batched = drained single

let test_batch_matches_single () =
  Prop.run ~count:150 ~seed:0x5eed31
    ~name:"publish batch = one put at a time"
    batch_case prop_batch_matches_single

(* ---- Chord: bulk join = join by join ------------------------------------ *)

(* ((physical nodes, VSs per node, salt path), churn after the build).
   When the third component is 0 the case is 2-4 nodes of 132-139 VSs:
   node 0's VS 131 and node 1's VS 0 then hash the same input, so the
   collision salt has to move one of them. *)
let bulk_case =
  Prop.pair
    (Prop.triple (Prop.int_in 1 512) (Prop.int_in 1 8) (Prop.int_in 0 4))
    (Prop.list_of ~max_len:6 ring_op)

let ring_state (dht : unit Dht.t) =
  ( Dht.vs_ids dht,
    List.rev
      (Dht.fold_vs dht ~init:[] ~f:(fun acc v ->
           (v.Dht.vs_id, v.Dht.owner, v.Dht.load) :: acc)),
    List.map
      (fun (n : Dht.node) ->
        ( n.Dht.node_id,
          n.Dht.underlay,
          n.Dht.capacity,
          List.map (fun v -> v.Dht.vs_id) n.Dht.vss ))
      (Dht.alive_nodes dht),
    Dht.ring_version dht )

(* Owner and hops of 64 lookups between random VSs and keys. *)
let sample_lookups ~seed (dht : unit Dht.t) =
  let rng = P2plb_prng.Prng.create ~seed in
  let ids = Dht.vs_ids dht in
  Prop.init_in_order 64 (fun _ ->
      let from = ids.(P2plb_prng.Prng.int rng (Array.length ids)) in
      let key = P2plb_prng.Prng.int rng Id.space_size in
      let v, hops = Dht.lookup dht ~from ~key in
      (v.Dht.vs_id, hops))

let prop_bulk_matches_joins ((n_nodes, vs, salt_sel), ops) =
  let n_nodes, vs =
    if salt_sel = 0 then (2 + (n_nodes mod 3), 131 + vs) else (n_nodes, vs)
  in
  let nodes =
    Array.init n_nodes (fun i -> (float_of_int (1 + (i mod 3)), 7 * i))
  in
  let joined : unit Dht.t = Dht.create ~seed:n_nodes in
  Array.iter
    (fun (capacity, underlay) ->
      ignore (Dht.join joined ~capacity ~underlay ~n_vs:vs))
    nodes;
  let bulk : unit Dht.t = Dht.create ~seed:n_nodes in
  Dht.join_all bulk nodes ~n_vs:vs;
  (* A VS whose id is not its unsalted hash took the salt path; a
     node's [vss] runs from index [vs - 1] down to 0. *)
  let unsalted (n : Dht.node) index =
    Id.hash_key ((n.Dht.node_id * 131) + index) "vs"
  in
  let salted =
    Dht.fold_nodes bulk ~init:0 ~f:(fun acc n ->
        acc
        + List.length
            (List.filteri
               (fun i v -> not (Id.equal v.Dht.vs_id (unsalted n (vs - 1 - i))))
               n.Dht.vss))
  in
  let agree () =
    ring_state joined = ring_state bulk
    && sample_lookups ~seed:n_nodes joined = sample_lookups ~seed:n_nodes bulk
  in
  let built = agree () in
  List.iter (fun op -> apply_ring_op joined op; apply_ring_op bulk op) ops;
  built && agree () && (salt_sel <> 0 || salted > 0)

let test_bulk_matches_joins () =
  Prop.run ~count:60 ~seed:0x5eed10
    ~name:"join_all = join node by node" bulk_case prop_bulk_matches_joins

let test_bulk_rejects () =
  let raises name f =
    Alcotest.(check bool) name true
      (match f () with () -> false | exception Invalid_argument _ -> true)
  in
  let fresh () : unit Dht.t = Dht.create ~seed:1 in
  let empty = fresh () in
  raises "capacity 0" (fun () ->
      Dht.join_all empty [| (1.0, 0); (0.0, 1) |] ~n_vs:2);
  raises "negative capacity" (fun () ->
      Dht.join_all empty [| (-1.0, 0) |] ~n_vs:2);
  raises "n_vs 0" (fun () -> Dht.join_all empty [| (1.0, 0) |] ~n_vs:0);
  (* Rejected before anything is allocated for the 2^30 VSs. *)
  raises "2^30 VSs, too many to pack" (fun () ->
      Dht.join_all empty [| (1.0, 0) |] ~n_vs:(1 lsl 30));
  Alcotest.(check int) "a rejected call joins nothing" 0 (Dht.n_nodes empty);
  Alcotest.(check int) "and inserts no VS" 0 (Dht.n_vs empty);
  let joined = fresh () in
  ignore (Dht.join joined ~capacity:1.0 ~underlay:0 ~n_vs:1);
  raises "non-empty ring" (fun () ->
      Dht.join_all joined [| (1.0, 1) |] ~n_vs:1);
  raises "join: capacity 0" (fun () ->
      ignore (Dht.join joined ~capacity:0.0 ~underlay:0 ~n_vs:1));
  raises "join: n_vs 0" (fun () ->
      ignore (Dht.join joined ~capacity:1.0 ~underlay:0 ~n_vs:0));
  let taken = (Dht.vs_ids joined).(0) in
  List.iter
    (fun (name, ids) ->
      raises ("join_ids: " ^ name) (fun () ->
          ignore (Dht.join_ids joined ~capacity:1.0 ~underlay:0 ids)))
    [
      ("no ids", [||]);
      ("negative id", [| 5; -1 |]);
      ("id past the space", [| Id.space_size |]);
      ("repeated id", [| 7; 7 |]);
      ("taken id", [| 9; taken |]);
    ];
  raises "join_ids: capacity 0" (fun () ->
      ignore (Dht.join_ids joined ~capacity:0.0 ~underlay:0 [| 3 |]));
  Alcotest.(check (pair int int))
    "rejected joins change nothing" (1, 1)
    (Dht.n_nodes joined, Dht.n_vs joined)

(* ---- Chord: a departure = its VSs removed one at a time ---------------- *)

(* ((physical nodes, VSs per node, shape), (load seed, run length)).
   Before the departure the departing node is also handed the VSs at
   some ring positions, in a shuffled order: shape 0 none, 1 a run of
   adjacent positions, 2 positions 0 and n - 1, 3 a run across the
   wrap past the last id. *)
let depart_case =
  Prop.pair
    (Prop.triple (Prop.int_in 2 96) (Prop.int_in 1 5) (Prop.int_in 0 3))
    (Prop.pair (Prop.int_in 0 1_000_000) (Prop.int_in 1 6))

(* Ring ids, then (id, owner, load bits) in ring order, then the ring
   version. *)
let ring_bits (dht : unit Dht.t) =
  ( Dht.vs_ids dht,
    List.rev
      (Dht.fold_vs dht ~init:[] ~f:(fun acc v ->
           (v.Dht.vs_id, v.Dht.owner, Int64.bits_of_float v.Dht.load) :: acc)),
    Dht.ring_version dht )

let prop_depart_matches_removals ((n_nodes, vs, shape), (seed, run)) =
  let make () =
    let dht : unit Dht.t = Dht.create ~seed:n_nodes in
    Dht.join_all dht (Array.init n_nodes (fun i -> (1.0, i))) ~n_vs:vs;
    let rng = P2plb_prng.Prng.create ~seed in
    Dht.fold_vs dht ~init:() ~f:(fun () v ->
        Dht.set_vs_load dht v (10.0 *. P2plb_prng.Prng.unit_float rng));
    let n = Dht.n_vs dht in
    let goner = P2plb_prng.Prng.int rng n_nodes in
    let run = Int.min run (n / 2) in
    let start = P2plb_prng.Prng.int rng n in
    let positions =
      match shape with
      | 0 -> []
      | 1 -> List.init run (fun i -> (start + i) mod n)
      | 2 -> [ 0; n - 1 ]
      | _ -> List.init (Int.max 2 run) (fun i -> (n - 1 + i) mod n)
    in
    let ids = Dht.vs_ids dht in
    let order = Array.of_list (List.sort_uniq Int.compare positions) in
    P2plb_prng.Prng.shuffle rng order;
    Array.iter
      (fun i ->
        Dht.transfer_vs dht (Option.get (Dht.vs_of_id dht ids.(i)))
          ~to_node:goner)
      order;
    (dht, goner)
  in
  let batch, goner = make () and one_by_one, _ = make () in
  if not (Dht.can_depart batch goner) then true
  else begin
    let vss = (Dht.node one_by_one goner).Dht.vss in
    Dht.crash batch goner;
    List.iter (Dht.remove_vs one_by_one) vss;
    ring_bits batch = ring_bits one_by_one
    && (Dht.node batch goner).Dht.vss = []
    && not (Dht.is_alive batch goner)
  end

let test_depart_matches_removals () =
  Prop.run ~count:150 ~seed:0x5eed12
    ~name:"depart = sequential remove_vs" depart_case
    prop_depart_matches_removals

(* ---- Chord: the ring against a sorted-list model ------------------------ *)

(* ((physical nodes, VSs per node), churn): joins, crashes, VS removals
   and transfers. *)
let model_case =
  Prop.pair
    (Prop.pair (Prop.int_in 1 64) (Prop.int_in 1 4))
    (Prop.list_of ~max_len:24 (ring_op_in ~kinds:4))

let by_id (a, _) (b, _) = Int.compare a b

(* After every operation the ring must match a brute-force model, the
   (VS id, owner) list in ascending id order: ids strictly sorted and
   folded in ring order, successor(k) for owners, regions from the
   model's predecessors, total load, the VS count, and one ring version
   per VS inserted or deleted. *)
let prop_ring_matches_model ((n_nodes, vs), ops) =
  let dht : unit Dht.t = Dht.create ~seed:n_nodes in
  for i = 0 to n_nodes - 1 do
    ignore (Dht.join dht ~capacity:1.0 ~underlay:i ~n_vs:vs)
  done;
  let model =
    ref
      (List.sort by_id
         (List.concat_map
            (fun (n : Dht.node) ->
              List.map (fun v -> (v.Dht.vs_id, n.Dht.node_id)) n.Dht.vss)
            (Dht.alive_nodes dht)))
  in
  Dht.fold_vs dht ~init:() ~f:(fun () v ->
      Dht.set_vs_load dht v (float_of_int (1 + (v.Dht.vs_id mod 97))));
  let total = Dht.total_load dht in
  let version = ref (Dht.ring_version dht) in
  let rng = P2plb_prng.Prng.create ~seed:n_nodes in
  let check () =
    let m = !model in
    let ids = List.map fst m in
    let n = List.length m in
    let successor k =
      match List.find_opt (fun id -> id >= k) ids with
      | Some id -> id
      | None -> List.hd ids
    in
    let predecessor id =
      match List.rev (List.filter (fun x -> x < id) ids) with
      | p :: _ -> p
      | [] -> List.nth ids (n - 1)
    in
    let rec strictly_sorted = function
      | a :: (b :: _ as rest) -> a < b && strictly_sorted rest
      | [ _ ] | [] -> true
    in
    let keys =
      List.concat_map (fun id -> [ id; Id.add id 1; Id.sub id 1 ]) ids
      @ Prop.init_in_order 16 (fun _ -> P2plb_prng.Prng.int rng Id.space_size)
    in
    let ring =
      List.rev
        (Dht.fold_vs dht ~init:[] ~f:(fun acc v ->
             (v.Dht.vs_id, v.Dht.owner) :: acc))
    in
    strictly_sorted (Array.to_list (Dht.vs_ids dht))
    && List.equal (fun (a, o) (b, p) -> a = b && o = p) ring m
    && Array.to_list (Dht.vs_ids dht) = ids
    && List.for_all
         (fun k -> (Dht.owner_of_key dht k).Dht.vs_id = successor k)
         keys
    && List.for_all
         (fun id ->
           Region.equal
             (Dht.region_of_vs dht (Option.get (Dht.vs_of_id dht id)))
             (Region.between_excl_incl ~lo:(predecessor id) ~hi:id))
         ids
    && Dht.fold_vs dht ~init:0 ~f:(fun acc v ->
           acc + Region.len (Dht.region_of_vs dht v))
       = Id.space_size
    && Float.abs (Dht.total_load dht -. total) <= 1e-9 *. total
    && Dht.n_vs dht = n
    && Dht.ring_version dht = !version
  in
  let node a = Dht.alive_nth dht (a mod Dht.n_nodes dht) in
  let drop gone =
    model := List.filter (fun (id, _) -> not (List.mem id gone)) !model;
    version := !version + List.length gone
  in
  let crash (n : Dht.node) =
    if Dht.n_nodes dht > 1 && List.length n.Dht.vss < Dht.n_vs dht then begin
      let gone = List.map (fun v -> v.Dht.vs_id) n.Dht.vss in
      Dht.crash dht n.Dht.node_id;
      drop gone
    end
  in
  let apply op =
    let m = !model in
    let nth a = fst (List.nth m (a mod List.length m)) in
    match op with
    | Join a ->
      let nid = Dht.join dht ~capacity:1.0 ~underlay:0 ~n_vs:(1 + (a mod 3)) in
      let added =
        List.map (fun v -> (v.Dht.vs_id, nid)) (Dht.node dht nid).Dht.vss
      in
      model := List.sort by_id (added @ m);
      version := !version + List.length added
    | Crash a -> crash (node a)
    | Remove_vs a ->
      if List.length m > 1 then begin
        let id = nth a in
        Dht.remove_vs dht (Option.get (Dht.vs_of_id dht id));
        drop [ id ]
      end
    | Transfer_vs a ->
      let id = nth a and dst = (node (a / 7)).Dht.node_id in
      Dht.transfer_vs dht (Option.get (Dht.vs_of_id dht id)) ~to_node:dst;
      model := List.map (fun (i, o) -> if i = id then (i, dst) else (i, o)) m
    | Set_vs_load _ | Put _ | Join_ids _ | Add_vs_load _ | Store_handoff _ ->
      ()
  in
  check ()
  && List.for_all
       (fun op ->
         apply op;
         check ())
       ops

let test_ring_matches_model () =
  Prop.run ~count:80 ~seed:0x5eed11
    ~name:"ring = sorted-list model under churn" model_case
    prop_ring_matches_model

(* ---- Chord: the node table against per-node folds ------------------- *)

(* ((physical nodes, VSs per node, 1 for [join_all] or 0 for one
   [join] each), operations). *)
let table_case =
  Prop.pair
    (Prop.triple (Prop.int_in 1 48) (Prop.int_in 1 4) (Prop.int_in 0 1))
    (Prop.list_of ~max_len:24 (ring_op_in ~kinds:9))

(* Each alive node's table entries, bit for bit, against [node_load]
   and against folds of its VS list: the load from 0.0, the smallest
   VS load from [infinity] with [Float.min]. *)
let table_matches_folds dht =
  let loads = Dht.node_loads dht and l_mins = Dht.node_l_mins dht in
  let bits = Int64.bits_of_float in
  Float.Array.length loads = Dht.n_nodes dht
  && Float.Array.length l_mins = Dht.n_nodes dht
  && List.for_all
       (fun i ->
         let n = Dht.alive_nth dht i in
         let sum =
           List.fold_left (fun acc v -> acc +. v.Dht.load) 0.0 n.Dht.vss
         and l_min =
           List.fold_left
             (fun acc v -> Float.min acc v.Dht.load)
             infinity n.Dht.vss
         in
         bits (Float.Array.get loads i) = bits (Dht.node_load n)
         && bits (Float.Array.get loads i) = bits sum
         && bits (Float.Array.get l_mins i) = bits l_min)
       (List.init (Dht.n_nodes dht) Fun.id)

(* The table is read after every operation, so an operation that
   changes a load without invalidating it leaves a stale entry. *)
let prop_table_matches_folds ((n_nodes, vs, bulk), ops) =
  let dht : unit Dht.t = Dht.create ~seed:n_nodes in
  let empty = table_matches_folds dht in
  if bulk = 1 then
    Dht.join_all dht (Array.init n_nodes (fun i -> (1.0, i))) ~n_vs:vs
  else
    for i = 0 to n_nodes - 1 do
      ignore (Dht.join dht ~capacity:1.0 ~underlay:i ~n_vs:vs)
    done;
  let joined = table_matches_folds dht in
  Dht.fold_vs dht ~init:() ~f:(fun () v ->
      Dht.set_vs_load dht v (float_of_int (1 + (v.Dht.vs_id mod 97)) /. 7.0));
  empty && joined
  && table_matches_folds dht
  && List.for_all
       (fun op ->
         apply_ring_op dht op;
         table_matches_folds dht)
       ops

let test_table_matches_folds () =
  Prop.run ~count:200 ~seed:0x5eed13 ~name:"node table = per-node folds"
    table_case prop_table_matches_folds

(* ---- Ktree: skeleton sweeps = reference full walks ---------------------- *)

module Lbi = P2plb.Lbi
module Vsa = P2plb.Vsa
module Faults = P2plb_sim.Faults
module Graph = P2plb_topology.Graph
module Landmark = P2plb_landmark.Landmark
module Hilbert = P2plb_hilbert.Hilbert

(* (fault plan off / on, threshold 1 / 2 / 5 / 30, operations). *)
let skeleton_round =
  Prop.triple (Prop.int_in 0 1) (Prop.int_in 0 3)
    (Prop.list_of ~max_len:10 ring_op)

(* ((physical nodes, VSs per node, K = 2 / 3 / 8), round). *)
let skeleton_case =
  Prop.pair
    (Prop.triple (Prop.int_in 1 256) (Prop.int_in 1 6) (Prop.int_in 0 2))
    skeleton_round

(* A full postorder walk of the reference tree of the current ring,
   driven by a skeleton sweep's callbacks: an unassigned leaf holds
   [empty] and each internal node lifts over its own level alone. *)
let full_walk ~k dht ~empty ~at_leaf ~merge ~lift =
  let r = Kref.build ~k dht in
  Kref.sweep_up r.Kref.root
    ~at_leaf:(fun n ->
      if n.Kref.tag < 0 then empty
      else at_leaf ~slot:n.Kref.tag ~depth:n.Kref.depth)
    ~empty ~merge
    ~at_node:(fun n v -> lift ~hi:n.Kref.depth ~lo:n.Kref.depth v)

(* A small landmark space for the aware rounds: 256 underlay vertices
   (every node's vertex; joins use vertex 0) on a weighted ring with
   chords, three landmarks. *)
let skeleton_space =
  lazy
    (let n = 256 in
     let b = Graph.create_builder ~n in
     for v = 0 to n - 1 do
       Graph.add_edge b v ((v + 1) mod n) ~weight:(1 + (v mod 3));
       let w = v * 37 mod n in
       if w <> v then Graph.add_edge b v w ~weight:(2 + (v mod 5))
     done;
     Landmark.make_space (Graph.freeze b) ~landmarks:[| 0; 85; 170 |])

(* One LBI round then one VSA round (ignorant or [aware], with or
   without a fault plan) on the ring [join] places, loaded, whose
   K-nary tree was built before the churn, through the skeleton sweeps or, with [reference],
   through the reference full walks (dissemination: one send per leaf
   of a reference [sweep_down]).  Returns the root
   LBI, the VSA result less its rounds (not charged by the reference),
   the fault plan's counters and its next sends. *)
let skeleton_world ~aware ~reference ~seed ~k ~join (faulty, thr_sel, ops) =
  let threshold = [| 1; 2; 5; 30 |].(thr_sel) in
  let dht : Types.vsa_record Dht.t = Dht.create ~seed in
  join dht;
  (* Whole loads, so that sheds tie and the order of pairings and
     merges shows in the result. *)
  let loads = Prng.create ~seed in
  Dht.fold_vs dht ~init:() ~f:(fun () v ->
      Dht.set_vs_load dht v (float_of_int (Prng.int loads 10)));
  let tree = Ktree.build ~k dht in
  let item : Types.vsa_record = Light { deficit = 1.0; light_node = 0 } in
  List.iter (apply_ring_op_with ~item dht) ops;
  let faults =
    if faulty = 1 then
      Some (Faults.create ~seed (Faults.churn ~message_loss:0.3 ()))
    else None
  in
  let mode =
    if aware then
      Vsa.Aware
        {
          space = Lazy.force skeleton_space;
          order = 2;
          curve = Hilbert.Hilbert;
          binning = Landmark.Equal_width;
        }
    else Vsa.Ignorant
  in
  let rng = Prng.create ~seed:(seed + 1) in
  let lbi =
    if reference then begin
      let zero = { Types.l = 0.0; c = 0.0; l_min = infinity } in
      let lbi =
        Lbi.aggregate ~rng ?faults ~sweep:(full_walk ~k dht ~empty:zero) tree
          dht
      in
      ignore (Ktree.repair tree dht);
      Kref.sweep_down (Kref.build ~k dht).Kref.root lbi
        ~split:(fun _ v -> v)
        ~at_leaf:(fun _ _ ->
          Option.iter (fun f -> ignore (Faults.send f)) faults);
      lbi
    end
    else Lbi.run ~rng ?faults tree dht
  in
  let sweep =
    if reference then Some (full_walk ~k dht ~empty:Pairing.empty) else None
  in
  let v =
    Vsa.run ~threshold ?faults ?sweep ~mode ~rng ~lbi tree dht
  in
  let bits x = Int64.bits_of_float x in
  ( (bits lbi.Types.l, bits lbi.Types.c, bits lbi.Types.l_min),
    ( v.Vsa.assignments,
      Pairing.shed_entries v.Vsa.unassigned,
      Pairing.light_entries v.Vsa.unassigned,
      { v with Vsa.assignments = []; unassigned = Pairing.empty; rounds = 0 } ),
    Option.map
      (fun f ->
        ( (Faults.retries f, Faults.timeouts f, Faults.drops f),
          List.init 8 (fun _ -> Faults.send f) ))
      faults )

(* [skeleton_world] on [n_nodes] nodes of [vs] hashed VSs each. *)
let hashed_world ~aware ~reference ((n_nodes, vs, k_sel), rest) =
  skeleton_world ~aware ~reference ~seed:((n_nodes * 8) + vs)
    ~k:[| 2; 3; 8 |].(k_sel)
    ~join:(fun dht ->
      for i = 0 to n_nodes - 1 do
        ignore
          (Dht.join dht
             ~capacity:(float_of_int (1 + (i mod 4)))
             ~underlay:i ~n_vs:vs)
      done)
    rest

(* [skeleton_world] on an edge-id ring ([join_edge_ring]). *)
let edge_world ~aware ~reference (((seed, _, _) as ring), (k_sel, rest)) =
  skeleton_world ~aware ~reference ~seed ~k:[| 2; 3; 8 |].(k_sel)
    ~join:(fun dht -> join_edge_ring dht ring)
    rest

(* (edge-id ring, (K = 2 / 3 / 8, (fault plan off / on, threshold,
   operations))). *)
let skeleton_edge_case =
  Prop.pair edge_ring (Prop.pair (Prop.int_in 0 2) skeleton_round)

(* The skeleton sweeps against the full walks they replace: the LBI
   root bit for bit, VSA's assignments (in order), leftover pool and
   counters, and the fault stream's position, across K, churn, fault
   plans and thresholds, on hashed rings and on edge-id rings. *)
let test_skeleton_matches_full_walk () =
  Prop.run ~count:40 ~seed:0x5eed0d
    ~name:"skeleton sweeps = reference full walks (LBI, VSA, faults)"
    skeleton_case (fun case ->
      hashed_world ~aware:false ~reference:false case
      = hashed_world ~aware:false ~reference:true case);
  Prop.run ~count:40 ~seed:0x5eed15
    ~name:"skeleton sweeps = reference full walks (edge ids)"
    skeleton_edge_case (fun case ->
      edge_world ~aware:false ~reference:false case
      = edge_world ~aware:false ~reference:true case)

(* The same in proximity-aware mode: once-per-node keys, DHT publishes
   and the drain (items [Put] by the ring operations included) feed
   the occupied-slot sweep. *)
let test_skeleton_matches_full_walk_aware () =
  Prop.run ~count:40 ~seed:0x5eed10
    ~name:"skeleton sweeps = reference full walks (aware VSA, faults)"
    skeleton_case (fun case ->
      hashed_world ~aware:true ~reference:false case
      = hashed_world ~aware:true ~reference:true case)

(* ---- LBI root = the ring's totals ---------------------------------------- *)

(* Fault-free, the LBI root describes the whole ring, whatever K and
   the churn since the tree was built: [l_min] is exactly the least VS
   load over live nodes (a min does not round), [l] and [c] are the
   ring's totals up to summation order.  Loads are fractional, so the
   sums do round. *)
let prop_lbi_root_is_ring_total ((n_nodes, vs, k_sel), (_, _, ops)) =
  let k = [| 2; 3; 8 |].(k_sel) in
  let seed = (n_nodes * 8) + vs in
  let dht : unit Dht.t = Dht.create ~seed in
  for i = 0 to n_nodes - 1 do
    ignore
      (Dht.join dht
         ~capacity:(float_of_int (1 + (i mod 4)))
         ~underlay:i ~n_vs:vs)
  done;
  let loads = Prng.create ~seed in
  Dht.fold_vs dht ~init:() ~f:(fun () v ->
      Dht.set_vs_load dht v (Prng.float loads 10.0));
  let tree = Ktree.build ~k dht in
  List.iter (apply_ring_op dht) ops;
  let lbi = Lbi.run ~rng:(Prng.create ~seed:(seed + 1)) tree dht in
  let l_min =
    List.fold_left
      (fun m (n : Dht.node) ->
        List.fold_left (fun m v -> Float.min m v.Dht.load) m n.Dht.vss)
      infinity (Dht.alive_nodes dht)
  in
  let close a b = Float.abs (a -. b) <= 1e-12 *. Float.abs b in
  Float.equal lbi.Types.l_min l_min
  && close lbi.Types.l (Dht.total_load dht)
  && close lbi.Types.c (Dht.total_capacity dht)

let test_lbi_root_is_ring_total () =
  Prop.run ~count:60 ~seed:0x5eed30
    ~name:"LBI root = brute-force min and ring totals" skeleton_case
    prop_lbi_root_is_ring_total

(* ---- VS handles = ring searches ---------------------------------------- *)

module Vst = P2plb.Vst
module Workload = P2plb_workload.Workload

(* (crashes, joins, VS removals) at one point, a negative count being
   none: no churn at all in about one draw of five. *)
let handle_churn_case =
  Prop.triple (Prop.int_in (-4) 4) (Prop.int_in (-3) 3) (Prop.int_in (-5) 3)

(* ((physical nodes, VSs per node, K = 2 / 3 / 8),
    (Gaussian / Pareto loads, fault plan off / on, threshold 1 / 5 / 30),
    (churn inside the sweep hook, churn between VSA and VST, seed)). *)
let handle_case =
  Prop.triple
    (Prop.triple (Prop.int_in 2 160) (Prop.int_in 1 5) (Prop.int_in 0 2))
    (Prop.triple (Prop.int_in 0 1) (Prop.int_in 0 1) (Prop.int_in 0 2))
    (Prop.triple handle_churn_case handle_churn_case (Prop.int_in 0 1000))

type handle_world = {
  w_dht : Types.vsa_record Dht.t;
  w_tree : Ktree.t;
  w_lbi : Types.lbi;
  w_rng : Prng.t;
  w_faults : Faults.t option;
  w_churn : Prng.t;  (** draws the injected churn *)
}

(* A ring of Gnutella-profile capacities with Gaussian or Pareto loads,
   its tree and the global LBI; equal cases build equal worlds. *)
let handle_world ((n_nodes, vs, k_sel), (pareto, faulty, _), (_, _, seed)) =
  let dht : Types.vsa_record Dht.t = Dht.create ~seed in
  let setup = Prng.create ~seed in
  Dht.join_all dht
    (Array.init n_nodes (fun i -> (Workload.sample_capacity setup, i)))
    ~n_vs:vs;
  Workload.assign_loads setup
    (if pareto = 1 then Workload.default_pareto
     else Workload.default_gaussian)
    dht;
  let lbi =
    {
      Types.l = Dht.total_load dht;
      c = Dht.total_capacity dht;
      l_min =
        Dht.fold_vs dht ~init:infinity ~f:(fun m v -> Float.min m v.Dht.load);
    }
  in
  let faults =
    if faulty = 1 then
      Some
        (Faults.create ~seed
           (Faults.churn ~message_loss:0.2 ~duplicate_prob:0.2
              ~transfer_crash:0.2 ()))
    else None
  in
  {
    w_dht = dht;
    w_tree = Ktree.build ~k:[| 2; 3; 8 |].(k_sel) dht;
    w_lbi = lbi;
    w_rng = Prng.create ~seed:(seed + 1);
    w_faults = faults;
    w_churn = Prng.create ~seed:(seed + 2);
  }

(* [crashes] fail-stops, each of a node drawn from [victims] (all alive
   nodes when empty) that may depart, then [joins] fresh nodes, then
   [removals] CFS-style VS removals, each of a VS of a random alive
   node; a negative count is none.  A removed VS is marked off the
   ring, as a crashed node's VSs are, which the reference never reads:
   it searches the ring by id. *)
let handle_churn w ~victims (crashes, joins, removals) =
  let dht = w.w_dht in
  let any_node () =
    Dht.alive_nth dht (Prng.int w.w_churn (Dht.n_nodes dht))
  in
  for _ = 1 to crashes do
    let id =
      if Array.length victims = 0 then (any_node ()).Dht.node_id
      else victims.(Prng.int w.w_churn (Array.length victims))
    in
    if Dht.can_depart dht id then Dht.crash dht id
  done;
  for _ = 1 to joins do
    let capacity = Workload.sample_capacity w.w_churn in
    ignore
      (Dht.join dht ~capacity ~underlay:0 ~n_vs:(1 + Prng.int w.w_churn 3))
  done;
  for _ = 1 to removals do
    match (any_node ()).Dht.vss with
    | [] -> ()
    | vss ->
      let v = List.nth vss (Prng.int w.w_churn (List.length vss)) in
      if Dht.n_vs dht > 1 then Dht.remove_vs dht v
  done

let same_assignment (x : Types.assignment) (y : Types.assignment) =
  Int.equal x.a_vs.Dht.vs_id y.a_vs.Dht.vs_id
  && Int64.equal (Int64.bits_of_float x.a_load) (Int64.bits_of_float y.a_load)
  && Int.equal x.a_from y.a_from
  && Int.equal x.a_to y.a_to
  && Int.equal x.a_depth y.a_depth

(* What the cases reached, so that the property cannot pass vacuously:
   stale drops and each skip cause that churn can make. *)
let handle_stale = ref 0
let handle_skips : (string, int) Hashtbl.t = Hashtbl.create 4

(* Twin worlds: one runs [Vsa.run] and [Vst.apply] on handles, the other
   [Search_reference], which finds every VS again by id.  Crashes and
   joins strike both at the same two points: inside the sweep hook,
   after publication and before any leaf's freshness check; and between
   VSA and VST, at the assignments' endpoints.  Stale drops, the
   assignments, the in-order VST skip causes and the final owner of
   every VS must agree. *)
let prop_handles_match_search
    (((_, (_, _, thr_sel), (in_sweep, before_vst, _)) as case)) =
  let threshold = [| 1; 5; 30 |].(thr_sel) in
  let hook w ~at_leaf ~merge ~lift =
    handle_churn w ~victims:[||] in_sweep;
    let tree = w.w_tree in
    Ktree.sweep tree
      (Array.init (Ktree.n_leaf_slots tree) Fun.id)
      ~empty:Pairing.empty ~at_leaf ~merge ~lift
  in
  let endpoints assignments =
    Array.of_list
      (List.concat_map
         (fun (a : Types.assignment) -> [ a.a_from; a.a_to ])
         assignments)
  in
  let owners w =
    Dht.fold_vs w.w_dht ~init:[] ~f:(fun acc v ->
        (v.Dht.vs_id, v.Dht.owner) :: acc)
  in
  let a = handle_world case and b = handle_world case in
  let v =
    Vsa.run ~threshold ?faults:a.w_faults ~sweep:(hook a) ~mode:Vsa.Ignorant
      ~rng:a.w_rng ~lbi:a.w_lbi a.w_tree a.w_dht
  in
  let made, stale =
    Search_reference.vsa ~threshold ~epsilon:0.0 ?faults:b.w_faults
      ~sweep:(hook b) ~rng:b.w_rng ~lbi:b.w_lbi b.w_tree b.w_dht
  in
  let same_vsa =
    v.Vsa.stale_dropped = stale
    && List.equal same_assignment v.Vsa.assignments made
  in
  handle_churn a ~victims:(endpoints v.Vsa.assignments) before_vst;
  handle_churn b ~victims:(endpoints made) before_vst;
  let obs = Obs.create () in
  ignore (Vst.apply ~obs ?faults:a.w_faults a.w_dht v.Vsa.assignments);
  let skips =
    List.filter_map
      (fun (ev : Trace.ev) ->
        if String.equal ev.name "vst/skip" then
          List.find_map
            (function "cause", Trace.Str c -> Some c | _ -> None)
            ev.attrs
        else None)
      (Trace.events (Obs.trace obs))
  in
  let ref_skips =
    Search_reference.vst_skips ?faults:b.w_faults b.w_dht made
  in
  handle_stale := !handle_stale + stale;
  List.iter
    (fun c ->
      Hashtbl.replace handle_skips c
        (1 + Option.value ~default:0 (Hashtbl.find_opt handle_skips c)))
    ref_skips;
  same_vsa
  && List.equal String.equal skips ref_skips
  && List.equal
       (fun (i, o) (j, p) -> Int.equal i j && Int.equal o p)
       (owners a) (owners b)

let test_handles_match_search () =
  handle_stale := 0;
  Hashtbl.reset handle_skips;
  Prop.run ~count:300 ~seed:0x5eed39
    ~name:"VS handles = ring searches (VSA, VST, churn, faults)" handle_case
    prop_handles_match_search;
  let skipped c =
    Option.value ~default:0 (Hashtbl.find_opt handle_skips c)
  in
  Alcotest.(check bool) "some record went stale" true (!handle_stale > 0);
  Alcotest.(check bool) "some VS was gone" true (skipped "vs_gone" > 0);
  Alcotest.(check bool) "some destination was dead" true
    (skipped "dest_dead" > 0)

(* ---- Ktree: occupied-slot sweep = full sweep ---------------------------- *)

(* A sweep value that keeps {!Ktree.sweep}'s laws and shows every call:
   [E] is empty, a lift wraps one [Lift] per level (so lifting level by
   level is one lift over the range), merging with [E] is the
   identity. *)
type swept = E | Leaf of int * int | Merge of swept * swept | Lift of int * swept

let swept_merge a b =
  match (a, b) with E, v | v, E -> v | a, b -> Merge (a, b)

let swept_lift ~hi ~lo v =
  match v with
  | E -> E
  | v ->
    let v = ref v in
    for d = lo downto hi do
      v := Lift (d, !v)
    done;
    !v

(* ((physical nodes, VSs per node, K = 2 / 3 / 8), (subset seed, in how
   many slots one is listed)). *)
let slots_case =
  Prop.pair
    (Prop.triple (Prop.int_in 1 200) (Prop.int_in 1 5) (Prop.int_in 0 2))
    (Prop.pair (Prop.int_in 0 1000) (Prop.int_in 1 8))

let prop_sweep_subset_matches ((n_nodes, vs, k_sel), (seed, every)) =
  let k = [| 2; 3; 8 |].(k_sel) in
  let dht : unit Dht.t = Dht.create ~seed in
  for i = 0 to n_nodes - 1 do
    ignore (Dht.join dht ~capacity:1.0 ~underlay:i ~n_vs:vs)
  done;
  let tree = Ktree.build ~k dht in
  let pick = Prng.create ~seed in
  let listed =
    Array.init (Ktree.n_leaf_slots tree) (fun _ -> Prng.int pick every = 0)
  in
  let slots =
    Array.of_list
      (List.filter (Array.get listed)
         (List.init (Ktree.n_leaf_slots tree) Fun.id))
  in
  let calls = ref [] in
  let full =
    Ktree.sweep tree
      (Array.init (Ktree.n_leaf_slots tree) Fun.id)
      ~empty:E
      ~at_leaf:(fun ~slot ~depth ->
        if listed.(slot) then Leaf (slot, depth) else E)
      ~merge:swept_merge ~lift:swept_lift
  in
  let m = Ktree.messages tree and r = Ktree.rounds_last_sweep tree in
  let sub =
    Ktree.sweep tree slots ~empty:E
      ~at_leaf:(fun ~slot ~depth ->
        calls := slot :: !calls;
        Leaf (slot, depth))
      ~merge:swept_merge ~lift:swept_lift
  in
  full = sub
  && Array.to_list slots = List.rev !calls
  && Ktree.messages tree - m = Ktree.n_nodes tree - 1
  && Ktree.rounds_last_sweep tree = r

let test_sweep_subset_matches () =
  Prop.run ~count:100 ~seed:0x5eed0f
    ~name:"occupied-slot sweep = full sweep with empty leaves" slots_case
    prop_sweep_subset_matches

(* ---- Set-up kernels = their plain references ---------------------------- *)

module Transit_stub = P2plb_topology.Transit_stub
module Sref = Setup_reference

(* FNV-1a in two plain loops against the closure form: salts over the
   whole int range (negative ones included) and strings of every
   length up to 12, besides the production salts and tags. *)
let test_hash_key_matches_reference () =
  let rng = Prng.create ~seed:0x5eed28 in
  let tags = [| ""; "vs"; "home"; "obj"; "stress"; "trace-obj"; "file" |] in
  for i = 0 to 99_999 do
    let salt =
      if i < 50_000 then (i * 131) + (i mod 5) + (i * 1_000_003)
      else Int64.to_int (Prng.bits64 rng)
    in
    let s =
      if i mod 2 = 0 then tags.(i mod Array.length tags)
      else String.init (Prng.int rng 13) (fun _ -> Char.chr (Prng.int rng 256))
    in
    let got = Id.hash_key salt s and want = Sref.hash_key salt s in
    if got <> want then
      Alcotest.failf "hash_key %d %S = %d, reference %d" salt s got want
  done

(* [Prng.int]'s top-level loop against the closure form, over bounds
   1, 2, 7, every power of two up to 2^61, 2^61 + 1 (which rejects about
   a quarter of its raw draws) and [max_int]: the same values, and the
   two streams left at the same point. *)
let int_bounds =
  [ 1; 2; 7; (1 lsl 61) + 1; max_int ] @ List.init 62 (fun k -> 1 lsl k)

let prop_int_matches_reference seed =
  List.for_all
    (fun bound ->
      let t = Prng.create ~seed in
      let t' = Prng.copy t in
      let same = ref true in
      for _ = 1 to 200 do
        if Prng.int t bound <> Sref.prng_int t' bound then same := false
      done;
      !same && Prng.bits64 t = Prng.bits64 t')
    int_bounds

let test_int_matches_reference () =
  Prop.run ~count:100 ~seed:0x5eed2a ~name:"Prng.int = closure reference"
    (Prop.int_in 0 1_000_000) prop_int_matches_reference

(* The inverse of SplitMix64's finaliser (see [Prng]): each
   xor-shift is undone by iterating it, each odd multiplier by its
   inverse mod 2^64 (Newton's iteration from [c], which is its own
   inverse mod 8, doubling the correct low bits each step). *)
let unmix64 z =
  let unshift z k =
    let x = ref z in
    for _ = 1 to 64 / k do
      x := Int64.(logxor z (shift_right_logical !x k))
    done;
    !x
  in
  let inverse c =
    let x = ref c in
    for _ = 1 to 5 do
      x := Int64.(mul !x (sub 2L (mul c !x)))
    done;
    !x
  in
  let z = Int64.mul (unshift z 31) (inverse 0x94D049BB133111EBL) in
  let z = Int64.mul (unshift z 27) (inverse 0xBF58476D1CE4E5B9L) in
  unshift z 30

(* A seed whose stream's first [unit_float] is [k * 2^-53]: [create]
   mixes the seed into the state and a draw adds the golden gamma and
   mixes again, so unmixing a wanted output twice gives the seed.  Of
   the 2048 outputs that share the draw's top 53 bits, the first whose
   seed is an OCaml [int] (its top two bits agree) is taken. *)
let seed_drawing k =
  let rec go low =
    if low = 2048 then Alcotest.failf "no int seed draws %d * 2^-53" k
    else
      let out = Int64.(logor (shift_left (of_int k) 11) (of_int low)) in
      let state = Int64.sub (unmix64 out) 0x9E3779B97F4A7C15L in
      let seed = unmix64 state in
      if Int64.of_int (Int64.to_int seed) = seed then Int64.to_int seed
      else go (low + 1)
  in
  let seed = go 0 in
  let first = Prng.unit_float (Prng.create ~seed) in
  if first <> Float.ldexp (float_of_int k) (-53) then
    Alcotest.failf "seed %d draws %h, not %d * 2^-53" seed first k;
  seed

(* [Prng.bernoulli t p] against [Prng.unit_float t' < p] on a copy:
   the same outcomes and the same draws, for probabilities at and
   beyond both ends of [\[0, 1)] and [nan]. *)
let probabilities =
  [ 0.0; 0x1p-53; 0.42; 1.0 -. 0x1p-53; 1.0; -1.0; 2.0; Float.nan ]

let prop_bernoulli_matches_unit_float seed =
  List.for_all
    (fun p ->
      let t = Prng.create ~seed in
      let t' = Prng.copy t in
      let same = ref true in
      for _ = 1 to 200 do
        if Prng.bernoulli t p <> (Prng.unit_float t' < p) then same := false
      done;
      !same && Prng.bits64 t = Prng.bits64 t')
    probabilities

(* Random seeds almost never draw a probability exactly, which is where
   [<] and [<=] part; so first the seeds whose first draw is each
   probability a draw can equal, and the draws either side of it. *)
let test_bernoulli_matches_unit_float () =
  let edges =
    List.concat_map
      (fun p ->
        let k = Float.ldexp p 53 in
        if Float.is_integer k && k >= 0.0 && k < 0x1p53 then
          let k = int_of_float k in
          List.filter
            (fun k -> k >= 0 && k < 1 lsl 53)
            [ k - 1; k; k + 1 ]
        else [])
      probabilities
  in
  List.iter
    (fun k ->
      let seed = seed_drawing k in
      if not (prop_bernoulli_matches_unit_float seed) then
        Alcotest.failf "seed %d (first draw %d * 2^-53) disagrees" seed k)
    edges;
  Prop.run ~count:100 ~seed:0x5eed2b
    ~name:"Prng.bernoulli = unit_float <" (Prop.int_in 0 1_000_000)
    prop_bernoulli_matches_unit_float

let same_graph g g' =
  let row g v =
    let r = ref [] in
    Graph.iter_neighbors g v (fun u w -> r := (u, w) :: !r);
    List.rev !r
  in
  Graph.n_vertices g = Graph.n_vertices g'
  && Graph.n_edges g = Graph.n_edges g'
  && List.for_all
       (fun v -> row g v = row g' v)
       (List.init (Graph.n_vertices g) Fun.id)

(* (vertices, weight mode, edges): mode 0 draws weights in 0..9 (a few
   weight-0 edges), mode 1 in 0..3 (many: weight-0 cycles and bridges
   both), mode 2 in 1..10 (none).  Sparse edge lists on up to 40
   vertices leave parts disconnected. *)
let weighted_graph =
  Prop.triple (Prop.int_in 1 40) (Prop.int_in 0 2)
    (Prop.list_of ~max_len:80
       (Prop.triple (Prop.int_in 0 39) (Prop.int_in 0 39) (Prop.int_in 0 9)))

(* Both metrics of one builder (the second weight is a different
   function of the draw) against one single-weight builder each, and
   [dijkstra] from every source of both against the reference. *)
let prop_dijkstra_matches_reference (n, mode, edges) =
  let weight w = match mode with 0 -> w | 1 -> w / 3 | _ -> w + 1 in
  let weight2 w = (9 - w) / 2 in
  let both = Graph.create_builder ~n in
  let one = Graph.create_builder ~n and two = Graph.create_builder ~n in
  List.iter
    (fun (u, v, w) ->
      let u = u mod n and v = v mod n in
      if u <> v then begin
        Graph.add_edge2 both u v ~weight:(weight w) ~weight2:(weight2 w);
        Graph.add_edge one u v ~weight:(weight w);
        Graph.add_edge two u v ~weight:(weight2 w)
      end)
    edges;
  let g, g2 = Graph.freeze2 both in
  let agrees g =
    List.for_all
      (fun src -> Graph.dijkstra g ~src = Sref.dijkstra g ~src)
      (List.init n Fun.id)
  in
  same_graph g (Graph.freeze one)
  && same_graph g2 (Graph.freeze two)
  && agrees g && agrees g2

let test_dijkstra_matches_reference () =
  Prop.run ~count:300 ~seed:0x5eed29 ~name:"dijkstra = Set reference"
    weighted_graph prop_dijkstra_matches_reference

(* [generate]'s shared-row graphs against the two-builder reference, on
   each preset the experiments use. *)
let test_generate_matches_reference () =
  List.iter
    (fun (name, params) ->
      List.iter
        (fun seed ->
          let topo = Transit_stub.generate (Prng.create ~seed) params in
          let hop, lat = Sref.generate_graphs (Prng.create ~seed) params in
          if not (same_graph topo.Transit_stub.graph hop) then
            Alcotest.failf "%s seed %d: hop graph differs" name seed;
          if not (same_graph topo.Transit_stub.latency_graph lat) then
            Alcotest.failf "%s seed %d: latency graph differs" name seed)
        [ 1; 2; 3 ])
    [
      ("ts5k_large", Transit_stub.ts5k_large);
      ("ts5k_small", Transit_stub.ts5k_small);
      ("scaled 4096", Transit_stub.scaled ~n:4096);
    ]

(* [Dht.join_all] at 131072 nodes × 5 VSs, where salt-0 ids collide,
   against the one-draw-at-a-time [Hashtbl] build. *)
let test_join_all_matches_reference () =
  let n_nodes = 131_072 and n_vs = 5 in
  let dht : unit Dht.t = Dht.create ~seed:1 in
  Dht.join_all dht
    (Array.init n_nodes (fun i -> (float_of_int (1 + (i mod 3)), 7 * i)))
    ~n_vs;
  let ring, vss = Sref.join_all ~n_nodes ~n_vs in
  let i = ref 0 and ring_diff = ref 0 in
  Dht.fold_vs dht ~init:() ~f:(fun () v ->
      let id, owner = ring.(!i) in
      if v.Dht.vs_id <> id || v.Dht.owner <> owner || v.Dht.load <> 0.0 then
        incr ring_diff;
      incr i);
  Alcotest.(check int) "ring size" (n_nodes * n_vs) !i;
  Alcotest.(check int) "ids and owners" 0 !ring_diff;
  let node_diff = ref 0 and salted = ref 0 in
  List.iteri
    (fun i (n : Dht.node) ->
      let ids = List.map (fun v -> v.Dht.vs_id) n.Dht.vss in
      if
        n.Dht.node_id <> i
        || n.Dht.underlay <> 7 * i
        || n.Dht.capacity <> float_of_int (1 + (i mod 3))
        || not (List.equal Int.equal vss.(i) ids)
      then incr node_diff;
      List.iteri
        (fun j id ->
          if id <> Id.hash_key ((i * 131) + (n_vs - 1 - j)) "vs" then
            incr salted)
        ids)
    (Dht.alive_nodes dht);
  Alcotest.(check int) "alive nodes" n_nodes (Dht.n_nodes dht);
  Alcotest.(check int) "alive_nodes and each node's vss" 0 !node_diff;
  Alcotest.(check int) "ring_version" (n_nodes * n_vs) (Dht.ring_version dht);
  Alcotest.(check bool) "some VS took the salt path" true (!salted > 0)

(* [Vs_draw.sorted_keys] under hashes narrowed to 8 bits, against the
   one-draw-at-a-time build.  Ids that narrow collide often, so a
   re-drawn id often lands on the salt-0 id of a later draw, which
   must then move too: the chain case, which 32-bit ids almost never
   reach.  The group asserts that some case reached it. *)
let narrow_case = Prop.pair (Prop.int_in 1 250) (Prop.int_in 0 1_000_000)

let chains = ref 0

let prop_draws_match (n, tag) =
  let tag = string_of_int tag in
  let hash ~draw ~salt =
    Id.hash_key (draw + (salt * 1_000_003)) tag land 0xff
  in
  let keys = Vs_draw.sorted_keys ~hash n in
  let ids = Array.make n (-1) in
  Array.iter (fun k -> ids.(Vs_draw.key_draw k) <- Vs_draw.key_id k) keys;
  let expected = Sref.draw_ids ~hash n in
  (* A chain: a draw moved that is the first to draw its salt-0 id. *)
  for d = 0 to n - 1 do
    let s0 = hash ~draw:d ~salt:0 in
    let first = ref true in
    for e = 0 to d - 1 do
      if hash ~draw:e ~salt:0 = s0 then first := false
    done;
    if !first && expected.(d) <> s0 then incr chains
  done;
  let ascending = ref true in
  for i = 1 to n - 1 do
    if keys.(i) <= keys.(i - 1) then ascending := false
  done;
  !ascending && Array.for_all2 Int.equal ids expected

let test_draws_match_reference () =
  chains := 0;
  Prop.run ~count:300 ~seed:0x5eed29
    ~name:"sorted_keys = one draw at a time (8-bit ids)" narrow_case
    prop_draws_match;
  Alcotest.(check bool) "some case re-drew onto a later salt-0 id" true
    (!chains > 0)

let () =
  Alcotest.run "prop"
    [
      ( "region",
        [
          Alcotest.test_case "wrap-around containment" `Quick
            test_region_contains;
          Alcotest.test_case "split partitions" `Quick test_region_split;
          Alcotest.test_case "split parts disjoint" `Quick
            test_region_split_disjoint;
        ] );
      ( "excess",
        [
          Alcotest.test_case "choose_shed minimality" `Quick
            test_excess_minimal;
        ] );
      ( "pairing",
        [
          Alcotest.test_case "shed-load conservation" `Quick
            test_pairing_conserves;
          Alcotest.test_case "agrees with Set reference: pair" `Quick
            test_pair_agrees_with_reference;
          Alcotest.test_case "agrees with Set reference: merge" `Quick
            test_merge_agrees_with_reference;
          Alcotest.test_case "agrees with Set reference: merge empty" `Quick
            test_merge_empty_agrees;
          Alcotest.test_case "VSA grouping agrees with list path" `Quick
            test_vsa_grouping_agrees;
          Alcotest.test_case "agrees with Set reference: re-pair leftover"
            `Quick test_repair_agrees_with_reference;
          Alcotest.test_case "agrees with Set reference: pair, up to 400"
            `Quick test_pair_agrees_large;
          Alcotest.test_case
            "agrees with Set reference: re-pair leftover, up to 400" `Quick
            test_repair_agrees_large;
        ] );
      ( "chord",
        [
          Alcotest.test_case "lookup = greedy finger scan" `Quick
            test_lookup_matches_reference;
          Alcotest.test_case "lookup on 1-3 VS rings" `Quick
            test_lookup_small_rings;
          Alcotest.test_case "indexed lower bound = scan" `Quick
            test_index_matches_scan;
          Alcotest.test_case "index rebuilt after a shrink" `Quick
            test_index_after_shrink;
          Alcotest.test_case "indexed owner_of_key = scan" `Quick
            test_owner_matches_scan;
          Alcotest.test_case "handoff = per-VS region queries" `Quick
            test_handoff_matches_regions;
          Alcotest.test_case "publish batch = one put at a time" `Quick
            test_batch_matches_single;
          Alcotest.test_case "join_all = join node by node" `Quick
            test_bulk_matches_joins;
          Alcotest.test_case "join_all rejects what join rejects" `Quick
            test_bulk_rejects;
          Alcotest.test_case "ring = sorted-list model" `Quick
            test_ring_matches_model;
          Alcotest.test_case "depart = sequential remove_vs" `Quick
            test_depart_matches_removals;
          Alcotest.test_case "node table = per-node folds" `Quick
            test_table_matches_folds;
        ] );
      ( "ktree",
        [
          Alcotest.test_case "ring-version contract" `Quick
            test_ktree_version_contract;
          Alcotest.test_case "build = reference builder" `Quick
            test_ktree_matches_reference;
          Alcotest.test_case "upkeep = reference walks" `Quick
            test_ktree_upkeep_matches_reference;
          Alcotest.test_case "upkeep = reference walks at skip edges" `Quick
            test_ktree_upkeep_edges;
          Alcotest.test_case "upkeep leaves the canonical tree" `Quick
            test_ktree_stays_canonical;
          Alcotest.test_case "skeleton sweeps = reference full walks" `Quick
            test_skeleton_matches_full_walk;
          Alcotest.test_case "skeleton sweeps = reference full walks (aware)"
            `Quick test_skeleton_matches_full_walk_aware;
          Alcotest.test_case "occupied-slot sweep = full sweep" `Quick
            test_sweep_subset_matches;
          Alcotest.test_case "LBI root = ring totals" `Quick
            test_lbi_root_is_ring_total;
        ] );
      ( "handles",
        [
          Alcotest.test_case "VS handles = ring searches" `Quick
            test_handles_match_search;
        ] );
      ( "setup",
        [
          Alcotest.test_case "hash_key = closure FNV-1a" `Quick
            test_hash_key_matches_reference;
          Alcotest.test_case "dijkstra = Set reference" `Quick
            test_dijkstra_matches_reference;
          Alcotest.test_case "Prng.int = closure reference" `Quick
            test_int_matches_reference;
          Alcotest.test_case "Prng.bernoulli = unit_float <" `Quick
            test_bernoulli_matches_unit_float;
          Alcotest.test_case "generate = two-builder reference" `Quick
            test_generate_matches_reference;
          Alcotest.test_case "join_all = Hashtbl reference (131072 x 5)"
            `Quick test_join_all_matches_reference;
          Alcotest.test_case "VS draws = one at a time (8-bit ids)" `Quick
            test_draws_match_reference;
        ] );
    ]
