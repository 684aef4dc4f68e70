module Id = P2plb_idspace.Id
module Region = P2plb_idspace.Region
module Prng = P2plb_prng.Prng

type node_id = int

type vs = {
  vs_id : Id.t;
  mutable owner : node_id;
  mutable load : float;
}

type node = {
  node_id : node_id;
  underlay : int;
  capacity : float;
  mutable alive : bool;
  mutable vss : vs list;
}

type 'a t = {
  rng : Prng.t;
  mutable ring : vs Ring_map.t;
  nodes : (node_id, node) Hashtbl.t;
  mutable items : 'a list Ring_map.t;
  mutable next_node_id : int;
  mutable lookup_count : int;
  mutable hop_count : int;
  (* Alive-node cache: nodes in join (= increasing node_id) order, so
     the prefix [0, live_n) reproduces the historical
     Hashtbl.fold + sort order exactly.  Departures only mark entries
     dead; the prefix is re-packed lazily before indexed access. *)
  mutable live : node array;
  mutable live_n : int;
  mutable live_dead : int;
  mutable n_alive : int;
  (* Ring snapshot: all VS ids sorted ascending with the VS records in
     a parallel array, rebuilt lazily after ring mutations.  Lets the
     read-heavy routing paths (lookup, owner_of_key, region_of_vs)
     binary-search without allocating Map query results.  [snap_n] < 0
     means invalid. *)
  mutable snap_ids : int array;
  mutable snap_vss : vs array;
  mutable snap_n : int;
  (* Bumped whenever the set of ring ids changes (insert/delete). *)
  mutable ring_version : int;
}

let create ~seed =
  {
    rng = Prng.create ~seed;
    ring = Ring_map.empty;
    nodes = Hashtbl.create 4096;
    items = Ring_map.empty;
    next_node_id = 0;
    lookup_count = 0;
    hop_count = 0;
    live = [||];
    live_n = 0;
    live_dead = 0;
    n_alive = 0;
    snap_ids = [||];
    snap_vss = [||];
    snap_n = -1;
    ring_version = 0;
  }

let node t id =
  match Hashtbl.find_opt t.nodes id with
  | Some n -> n
  | None -> raise Not_found

let is_alive t id =
  match Hashtbl.find_opt t.nodes id with Some n -> n.alive | None -> false

let n_nodes t = t.n_alive

let n_vs t = Ring_map.cardinal t.ring

let ring_version t = t.ring_version

(* --- Alive-node cache ------------------------------------------------- *)

let live_append t n =
  let cap = Array.length t.live in
  if t.live_n = cap then begin
    let bigger = Array.make (if cap = 0 then 1024 else 2 * cap) n in
    Array.blit t.live 0 bigger 0 t.live_n;
    t.live <- bigger
  end;
  t.live.(t.live_n) <- n;
  t.live_n <- t.live_n + 1

let live_compact t =
  if t.live_dead > 0 then begin
    let j = ref 0 in
    for i = 0 to t.live_n - 1 do
      let n = t.live.(i) in
      if n.alive then begin
        t.live.(!j) <- n;
        incr j
      end
    done;
    t.live_n <- !j;
    t.live_dead <- 0
  end

let alive_nodes t =
  live_compact t;
  let acc = ref [] in
  for i = t.live_n - 1 downto 0 do
    acc := t.live.(i) :: !acc
  done;
  !acc

let dead_nodes t =
  let all =
    Hashtbl.fold (fun _ n acc -> if n.alive then acc else n :: acc) t.nodes []
  in
  List.sort (fun a b -> Int.compare a.node_id b.node_id) all

let fold_nodes t ~init ~f =
  live_compact t;
  let acc = ref init in
  for i = 0 to t.live_n - 1 do
    acc := f !acc t.live.(i)
  done;
  !acc

let alive_nth t i =
  live_compact t;
  if i < 0 || i >= t.live_n then invalid_arg "Dht.alive_nth";
  t.live.(i)

(* --- Ring snapshot ---------------------------------------------------- *)

let snap_invalidate t = t.snap_n <- -1

let snap_refresh t =
  if t.snap_n < 0 then begin
    let n = Ring_map.cardinal t.ring in
    if n = 0 then t.snap_n <- 0
    else begin
      if Array.length t.snap_ids < n then begin
        let cap = Int.max 16 (Int.max n (2 * Array.length t.snap_ids)) in
        let fill =
          (* ids are >= 0, so successor(0) is the smallest binding *)
          match Ring_map.successor 0 t.ring with
          | Some (_, v) -> v
          | None -> assert false
        in
        t.snap_ids <- Array.make cap 0;
        t.snap_vss <- Array.make cap fill
      end;
      let i = ref 0 in
      Ring_map.iter
        (fun k v ->
          t.snap_ids.(!i) <- k;
          t.snap_vss.(!i) <- v;
          incr i)
        t.ring;
      t.snap_n <- n
    end
  end

(* Index of the first snapshot id >= k, or snap_n if none. *)
let snap_lower_bound t k =
  let ids = t.snap_ids in
  let lo = ref 0 and hi = ref t.snap_n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if ids.(mid) >= k then hi := mid else lo := mid + 1
  done;
  !lo

(* successor(k): first id >= k, wrapping to the smallest. *)
let snap_successor_idx t k =
  let i = snap_lower_bound t k in
  if i = t.snap_n then 0 else i

(* predecessor_strict(k): last id < k, wrapping to the largest. *)
let snap_predecessor_strict_idx t k =
  let i = snap_lower_bound t k in
  if i = 0 then t.snap_n - 1 else i - 1

let fold_vs t ~init ~f =
  Ring_map.fold (fun _ v acc -> f acc v) t.ring init

let vs_ids t =
  snap_refresh t;
  Array.sub t.snap_ids 0 t.snap_n

let vs_of_id t id = Ring_map.find_opt id t.ring

(* Map-based predecessor/region, for use while the ring is mid-mutation
   (insert/delete) where a snapshot refresh per call would cost O(n). *)
let predecessor_id_map t id =
  match Ring_map.predecessor_strict id t.ring with
  | Some (p, _) -> p
  | None -> id (* single VS: whole ring *)

let region_of_vs_map t v =
  let pred = predecessor_id_map t v.vs_id in
  if pred = v.vs_id then Region.whole
  else Region.between_excl_incl ~lo:pred ~hi:v.vs_id

let predecessor_id t id =
  snap_refresh t;
  if t.snap_n = 0 then id (* single VS: whole ring *)
  else t.snap_ids.(snap_predecessor_strict_idx t id)

let region_of_vs t v =
  let pred = predecessor_id t v.vs_id in
  if pred = v.vs_id then Region.whole
  else Region.between_excl_incl ~lo:pred ~hi:v.vs_id

let owner_of_key t k =
  snap_refresh t;
  if t.snap_n = 0 then invalid_arg "Dht.owner_of_key: empty ring"
  else t.snap_vss.(snap_successor_idx t k)

let set_vs_load _t v load =
  if load < 0.0 then invalid_arg "Dht.set_vs_load: negative load";
  v.load <- load

let add_vs_load _t v delta =
  let nl = v.load +. delta in
  if nl < -1e-9 then invalid_arg "Dht.add_vs_load: load underflow";
  v.load <- Float.max 0.0 nl

let node_load n = List.fold_left (fun acc v -> acc +. v.load) 0.0 n.vss

let node_unit_load n =
  if n.capacity <= 0.0 then invalid_arg "Dht.node_unit_load: capacity <= 0";
  node_load n /. n.capacity

let total_load t = fold_vs t ~init:0.0 ~f:(fun acc v -> acc +. v.load)

let total_capacity t =
  fold_nodes t ~init:0.0 ~f:(fun acc n -> acc +. n.capacity)

let random_vs_of_node _t rng n =
  match n.vss with
  | [] -> invalid_arg "Dht.random_vs_of_node: node hosts no VS"
  | vss ->
    (* Same single bounded draw as Prng.choose on an array copy, without
       materialising the array. *)
    List.nth vss (Prng.int rng (List.length vss))

let report_vs t rng n =
  match n.vss with
  | [] -> owner_of_key t (Id.hash_key n.node_id "home")
  | _ :: _ -> random_vs_of_node t rng n

(* Fresh pseudo-random VS identifier, avoiding collisions. *)
let fresh_vs_id t ~node_id ~index =
  let rec go salt =
    let id =
      Id.hash_key ((node_id * 131) + index + (salt * 1_000_003)) "vs"
    in
    if Ring_map.mem id t.ring then go (salt + 1) else id
  in
  go 0

(* Insert a VS into the ring, stealing the matching share of the load
   of the VS that previously covered its region. *)
let insert_vs t v =
  (match Ring_map.successor_strict v.vs_id t.ring with
  | Some (_, succ) when succ.vs_id <> v.vs_id ->
    let old_region = region_of_vs_map t succ in
    let old_len = Region.len old_region in
    if old_len > 0 then begin
      let pred = predecessor_id_map t succ.vs_id in
      let stolen_len =
        if pred = succ.vs_id then
          (* succ owned the whole ring; new vs takes all but succ's arc *)
          Id.distance_cw succ.vs_id v.vs_id
        else Id.distance_cw pred v.vs_id
      in
      let frac = float_of_int stolen_len /. float_of_int old_len in
      let moved = succ.load *. frac in
      succ.load <- succ.load -. moved;
      v.load <- v.load +. moved
    end
  | _ -> ());
  t.ring <- Ring_map.add v.vs_id v t.ring;
  t.ring_version <- t.ring_version + 1;
  snap_invalidate t

let join t ~capacity ~underlay ~n_vs =
  if capacity <= 0.0 then invalid_arg "Dht.join: capacity <= 0";
  if n_vs < 1 then invalid_arg "Dht.join: n_vs < 1";
  let node_id = t.next_node_id in
  t.next_node_id <- node_id + 1;
  let n = { node_id; underlay; capacity; alive = true; vss = [] } in
  Hashtbl.add t.nodes node_id n;
  live_append t n;
  t.n_alive <- t.n_alive + 1;
  for index = 0 to n_vs - 1 do
    let vs_id = fresh_vs_id t ~node_id ~index in
    let v = { vs_id; owner = node_id; load = 0.0 } in
    insert_vs t v;
    n.vss <- v :: n.vss
  done;
  node_id

(* Remove a VS from the ring; successor absorbs region and load. *)
let delete_vs_absorb t v =
  if Ring_map.cardinal t.ring <= 1 then
    invalid_arg "Dht.remove_vs: cannot remove the last VS";
  t.ring <- Ring_map.remove v.vs_id t.ring;
  t.ring_version <- t.ring_version + 1;
  snap_invalidate t;
  (match Ring_map.successor v.vs_id t.ring with
  | Some (_, succ) -> succ.load <- succ.load +. v.load
  | None -> assert false);
  let owner = node t v.owner in
  owner.vss <- List.filter (fun x -> x.vs_id <> v.vs_id) owner.vss

let depart t id =
  let n = node t id in
  if n.alive then begin
    List.iter (fun v -> delete_vs_absorb t v) n.vss;
    n.vss <- [];
    n.alive <- false;
    t.live_dead <- t.live_dead + 1;
    t.n_alive <- t.n_alive - 1
  end

let leave = depart
let crash = depart

let remove_vs t ~vs_id =
  match vs_of_id t vs_id with
  | None -> invalid_arg "Dht.remove_vs: no such VS"
  | Some v -> delete_vs_absorb t v

let transfer_vs t ~vs_id ~to_node =
  match vs_of_id t vs_id with
  | None -> invalid_arg "Dht.transfer_vs: no such VS"
  | Some v ->
    let dst = node t to_node in
    if not dst.alive then invalid_arg "Dht.transfer_vs: dead target";
    if v.owner <> to_node then begin
      let src = node t v.owner in
      src.vss <- List.filter (fun x -> x.vs_id <> vs_id) src.vss;
      dst.vss <- v :: dst.vss;
      v.owner <- to_node
    end

(* --- Routing ---------------------------------------------------------- *)

(* floor(log2 d) for d >= 1. *)
let log2_floor d =
  let rec go k d = if d <= 1 then k else go (k + 1) (d lsr 1) in
  go 0 d

(* Greedy Chord routing on the ring snapshot, tracking the current hop
   by its index [ci].  Let [pi] be the index of p, the last id strictly
   before [key]; its successor owns the key, so routing ends with the
   hop from p.  Otherwise Chord's closest preceding finger — the
   largest successor(cur + 2^k) strictly inside (cur, key) — is the
   finger of the largest k with 2^k <= dist_cw(cur, p): every smaller
   target lies in (cur, p], so its successor does too, and every larger
   one lies past p, where no id precedes the key.  One binary search
   per hop finds it. *)
let lookup t ~from ~key =
  snap_refresh t;
  let n = t.snap_n in
  if n = 0 then invalid_arg "Dht.lookup: empty ring";
  let ids = t.snap_ids in
  let fi = snap_lower_bound t from in
  if fi = n || ids.(fi) <> from then
    invalid_arg "Dht.lookup: unknown source VS";
  t.lookup_count <- t.lookup_count + 1;
  let pi = snap_predecessor_strict_idx t key in
  let oi = if pi = n - 1 then 0 else pi + 1 in
  if oi = fi then (t.snap_vss.(fi), 0)
  else begin
    let ci = ref fi and hops = ref 1 in
    while !ci <> pi do
      let cur = ids.(!ci) in
      let k = log2_floor (Id.distance_cw cur ids.(pi)) in
      ci := snap_successor_idx t (Id.add cur (1 lsl k));
      incr hops;
      (* Every hop moves clockwise without passing p, so the hops
         visit distinct VSs. *)
      assert (!hops <= n)
    done;
    t.hop_count <- t.hop_count + !hops;
    (t.snap_vss.(oi), !hops)
  end

let put t ~from ~key payload =
  let _, hops = lookup t ~from ~key in
  let existing =
    match Ring_map.find_opt key t.items with Some l -> l | None -> []
  in
  t.items <- Ring_map.add key (payload :: existing) t.items;
  hops

let get t ~from ~key =
  let _, hops = lookup t ~from ~key in
  let payloads =
    match Ring_map.find_opt key t.items with Some l -> l | None -> []
  in
  (payloads, hops)

let items_in_region t region =
  if Region.is_empty region then []
  else
    Ring_map.fold_range ~lo_incl:(Region.start region) ~len:(Region.len region)
      (fun k payloads acc ->
        List.fold_left (fun acc p -> (k, p) :: acc) acc payloads)
      t.items []

(* One pass over the store: each key meets its owner by one binary
   search.  [items_in_region] lists a region's keys counter-clockwise
   from its last point, so sorting by (owner index, distance to the
   last point of the owner's region) reproduces it per owner. *)
let drain_items t ~f =
  if not (Ring_map.is_empty t.items) then begin
    snap_refresh t;
    let keyed =
      Ring_map.fold
        (fun k payloads acc ->
          let oi = snap_successor_idx t k in
          let last = Region.last (region_of_vs t t.snap_vss.(oi)) in
          (oi, Id.distance_cw k last, k, payloads) :: acc)
        t.items []
    in
    t.items <- Ring_map.empty;
    List.iter
      (fun (oi, _, k, payloads) ->
        let v = t.snap_vss.(oi) in
        List.iter (fun p -> f v k p) (List.rev payloads))
      (List.sort
         (fun (o1, d1, _, _) (o2, d2, _, _) ->
           match Int.compare o1 o2 with 0 -> Int.compare d1 d2 | c -> c)
         keyed)
  end

let lookups_performed t = t.lookup_count
let hops_used t = t.hop_count

let reset_counters t =
  t.lookup_count <- 0;
  t.hop_count <- 0
