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

type t = {
  rng : Prng.t;
  (* Every node ever joined, indexed by its id: ids are dense,
     0 .. next_node_id - 1. *)
  mutable nodes : node array;
  mutable next_node_id : int;
  (* The ring: the VS ids in ascending order, [ring_vss.(i)] the record
     of [ring_ids.(i)], for i < ring_n.  Reads binary-search it;
     inserts and deletes blit. *)
  mutable ring_ids : int array;
  mutable ring_vss : vs array;
  mutable ring_n : int;
  (* Bucket index over [ring_ids], rebuilt lazily by the readers that
     use it when [ring_version] has moved. *)
  index : Ring_index.t;
  mutable lookup_count : int;
  mutable hop_count : int;
  (* Alive-node cache: nodes in join (= increasing node_id) order.
     Departures only mark entries dead; the prefix [0, live_n) is
     re-packed lazily before indexed access. *)
  mutable live : node array;
  mutable live_n : int;
  mutable live_dead : int;
  mutable n_alive : int;
  (* Bumped whenever the set of ring ids changes (insert/delete). *)
  mutable ring_version : int;
  (* Bumped whenever a VS load, a node's VS list or the alive set
     changes.  The node table holds, per alive node in [live] order,
     its load and its smallest VS load, as of [table_version]; the
     first read after [load_version] moves rebuilds it. *)
  mutable load_version : int;
  mutable table_version : int;
  mutable table_load : floatarray;
  mutable table_l_min : floatarray;
  (* The puts staged for the next [publish], in put order: put [r]'s
     entry is [fi lsl 31 lor (next + 1)], with [fi] its source's ring
     index and [next] the group's previous put, or -1.  [st_version]
     is the ring version the batch was staged at.  [st_key.(r)] is
     put [r]'s key. *)
  mutable st_src : int array;
  mutable st_key : int array;
  mutable st_n : int;
  mutable st_version : int;
  (* The batch's groups, one per key predecessor, stamped [st_base],
     [st_base + 1], ... in first-seen order: each group's last put and
     its predecessor's ring index.  [publish] then sorts [g_pred] by
     owner, and turns each routed put's [st_src] entry into its
     owner's ring index. *)
  mutable st_base : int;
  mutable g_last : int array;
  mutable g_pred : int array;
  (* By ring index, [stamp lsl 6 lor hops]: the hop count towards the
     predecessor of the group stamped [stamp].  While a batch is
     staged, a predecessor's entry holds its own group's stamp.  Each
     group takes a new stamp, so the memo is never cleared. *)
  mutable memo : int array;
  mutable stamp : int;
  (* [publish]'s delivery order, one code per put, and the buffer that
     sorts it and the groups. *)
  mutable dl_code : int array;
  mutable dl_buf : int array;
}

let create ~seed =
  {
    rng = Prng.create ~seed;
    nodes = [||];
    next_node_id = 0;
    ring_ids = [||];
    ring_vss = [||];
    ring_n = 0;
    index = Ring_index.create ();
    lookup_count = 0;
    hop_count = 0;
    live = [||];
    live_n = 0;
    live_dead = 0;
    n_alive = 0;
    ring_version = 0;
    load_version = 0;
    table_version = -1;
    table_load = Float.Array.create 0;
    table_l_min = Float.Array.create 0;
    st_src = [||];
    st_key = [||];
    st_n = 0;
    st_version = 0;
    st_base = 0;
    g_last = [||];
    g_pred = [||];
    memo = [||];
    stamp = 0;
    dl_code = [||];
    dl_buf = [||];
  }

let node t id =
  if id >= 0 && id < t.next_node_id then t.nodes.(id) else raise Not_found

let is_alive t id = id >= 0 && id < t.next_node_id && t.nodes.(id).alive
let n_nodes t = t.n_alive
let n_vs t = t.ring_n
let ring_version t = t.ring_version

(* A VS leaves the ring with its [owner] set to -1, an id no node has. *)
let on_ring v = v.owner >= 0

(* Every exported function that writes a VS load, a node's VS list or
   the alive set ends with this. *)
let touch_loads t = t.load_version <- t.load_version + 1

(* --- Nodes ------------------------------------------------------------ *)

(* [a] with room for index [i], doubled (padded with [x]) when full. *)
let reserve a i x =
  if i < Array.length a then a
  else Array.append a (Array.make (Int.max 16 i) x)

let add_node t ~capacity ~underlay =
  let node_id = t.next_node_id in
  let n = { node_id; underlay; capacity; alive = true; vss = [] } in
  t.nodes <- reserve t.nodes node_id n;
  t.nodes.(node_id) <- n;
  t.next_node_id <- node_id + 1;
  t.live <- reserve t.live t.live_n n;
  t.live.(t.live_n) <- n;
  t.live_n <- t.live_n + 1;
  t.n_alive <- t.n_alive + 1;
  n

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
  let acc = ref [] in
  for i = t.next_node_id - 1 downto 0 do
    let n = t.nodes.(i) in
    if not n.alive then acc := n :: !acc
  done;
  !acc

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

(* --- The ring --------------------------------------------------------- *)

(* Index of the first ring id >= k, or ring_n if none: a plain binary
   search, for membership changes and the reads they make. *)
let lower_bound t k = Ring_index.lower_bound_in t.ring_ids k 0 t.ring_n

(* The same through the bucket index, for the routing and storage
   reads; the first one after a membership change rebuilds it. *)
let indexed_lower_bound t k =
  Ring_index.lower_bound t.index ~version:t.ring_version t.ring_ids t.ring_n k

(* successor(k): first id >= k, wrapping to the smallest. *)
let successor_idx t k =
  let i = indexed_lower_bound t k in
  if i = t.ring_n then 0 else i

(* predecessor_strict(k): last id < k, wrapping to the largest. *)
let predecessor_strict_idx t k =
  let i = indexed_lower_bound t k in
  if i = 0 then t.ring_n - 1 else i - 1

let fold_vs t ~init ~f =
  let acc = ref init in
  for i = 0 to t.ring_n - 1 do
    acc := f !acc t.ring_vss.(i)
  done;
  !acc

let vs_ids t = Array.sub t.ring_ids 0 t.ring_n

let vs_of_id t id =
  let i = lower_bound t id in
  if i < t.ring_n && t.ring_ids.(i) = id then Some t.ring_vss.(i) else None

let region_of_vs t v =
  if t.ring_n = 0 then Region.whole
  else
    let i = lower_bound t v.vs_id in
    let pred = if i = 0 then t.ring_n - 1 else i - 1 in
    Region.between_excl_incl ~lo:t.ring_ids.(pred) ~hi:v.vs_id

let owner_of_key t k =
  if t.ring_n = 0 then invalid_arg "Dht.owner_of_key: empty ring"
  else t.ring_vss.(successor_idx t k)

let set_vs_load t v load =
  if load < 0.0 then invalid_arg "Dht.set_vs_load: negative load";
  v.load <- load;
  touch_loads t

let add_vs_load t v delta =
  let nl = v.load +. delta in
  if nl < -1e-9 then invalid_arg "Dht.add_vs_load: load underflow";
  v.load <- Float.max 0.0 nl;
  touch_loads t

(* The sum of the VS loads from 0.0 in list order, in a local float
   ref: no boxed accumulator per VS. *)
let node_load n =
  let sum = ref 0.0 and rest = ref n.vss in
  while
    match !rest with
    | [] -> false
    | v :: tl ->
      sum := !sum +. v.load;
      rest := tl;
      true
  do
    ()
  done;
  !sum

(* One pass over the alive nodes: each load summed as [node_load] sums
   it, each smallest VS load folded from [infinity] with [Float.min],
   straight into the floatarrays. *)
let refresh_table t =
  if t.table_version <> t.load_version then begin
    live_compact t;
    let n = t.live_n in
    if Float.Array.length t.table_load <> n then begin
      t.table_load <- Float.Array.create n;
      t.table_l_min <- Float.Array.create n
    end;
    for i = 0 to n - 1 do
      let sum = ref 0.0 and l_min = ref infinity in
      let rest = ref t.live.(i).vss in
      while
        match !rest with
        | [] -> false
        | v :: tl ->
          sum := !sum +. v.load;
          l_min := Float.min !l_min v.load;
          rest := tl;
          true
      do
        ()
      done;
      Float.Array.unsafe_set t.table_load i !sum;
      Float.Array.unsafe_set t.table_l_min i !l_min
    done;
    t.table_version <- t.load_version
  end

let node_loads t =
  refresh_table t;
  t.table_load

let node_l_mins t =
  refresh_table t;
  t.table_l_min

let total_load t = fold_vs t ~init:0.0 ~f:(fun acc v -> acc +. v.load)

let total_capacity t =
  fold_nodes t ~init:0.0 ~f:(fun acc n -> acc +. n.capacity)

let report_vs t rng n =
  match n.vss with
  | [] -> owner_of_key t (Id.hash_key n.node_id "home")
  | vss ->
    (* Same single bounded draw as Prng.choose on an array copy, without
       materialising the array. *)
    List.nth vss (Prng.int rng (List.length vss))

(* The id a node's [index]-th VS draws at [salt]. *)
let vs_hash ~node_id ~index ~salt =
  Id.hash_key ((node_id * 131) + index + (salt * 1_000_003)) "vs"

(* Pseudo-random id of a node's [index]-th VS: the first salt whose
   hash is not [taken]. *)
let fresh_vs_id ~taken ~node_id ~index =
  let rec go salt =
    let id = vs_hash ~node_id ~index ~salt in
    if taken id then go (salt + 1) else id
  in
  go 0

(* Insert a VS into the ring, stealing the matching share of the load
   of its successor: [v] lands in the successor's region (pred, succ]
   and takes the sub-arc (pred, v]. *)
let insert_vs t v =
  let n = t.ring_n in
  let i = lower_bound t v.vs_id in
  if n > 0 then begin
    let succ = t.ring_vss.(if i = n then 0 else i) in
    let pred = t.ring_ids.(if i = 0 then n - 1 else i - 1) in
    let old_len =
      Region.len (Region.between_excl_incl ~lo:pred ~hi:succ.vs_id)
    in
    let frac =
      float_of_int (Id.distance_cw pred v.vs_id) /. float_of_int old_len
    in
    let moved = succ.load *. frac in
    succ.load <- succ.load -. moved;
    v.load <- v.load +. moved
  end;
  t.ring_ids <- reserve t.ring_ids n 0;
  t.ring_vss <- reserve t.ring_vss n v;
  Array.blit t.ring_ids i t.ring_ids (i + 1) (n - i);
  Array.blit t.ring_vss i t.ring_vss (i + 1) (n - i);
  t.ring_ids.(i) <- v.vs_id;
  t.ring_vss.(i) <- v;
  t.ring_n <- n + 1;
  t.ring_version <- t.ring_version + 1

let join_ids t ~capacity ~underlay ids =
  if capacity <= 0.0 then invalid_arg "Dht.join_ids: capacity <= 0";
  if Array.length ids = 0 then invalid_arg "Dht.join_ids: no ids";
  Array.iteri
    (fun i id ->
      if
        id < 0 || id >= Id.space_size
        || Option.is_some (vs_of_id t id)
        || Array.exists (Int.equal id) (Array.sub ids 0 i)
      then invalid_arg "Dht.join_ids: id out of range, repeated or taken")
    ids;
  let n = add_node t ~capacity ~underlay in
  Array.iter
    (fun vs_id ->
      let v = { vs_id; owner = n.node_id; load = 0.0 } in
      insert_vs t v;
      n.vss <- v :: n.vss)
    ids;
  touch_loads t;
  n.node_id

(* Each draw skips the ids on the ring and the node's earlier draws. *)
let join t ~capacity ~underlay ~n_vs =
  if capacity <= 0.0 then invalid_arg "Dht.join: capacity <= 0";
  if n_vs < 1 then invalid_arg "Dht.join: n_vs < 1";
  let node_id = t.next_node_id and ids = Array.make n_vs 0 in
  for index = 0 to n_vs - 1 do
    let taken id =
      Option.is_some (vs_of_id t id)
      || Array.exists (Int.equal id) (Array.sub ids 0 index)
    in
    ids.(index) <- fresh_vs_id ~taken ~node_id ~index
  done;
  join_ids t ~capacity ~underlay ids

(* The ring [join] would build node by node, with one radix sort.
   Draw [node * n_vs + index] is a node's [index]-th VS, so
   [Vs_draw.sorted_keys] re-draws colliding ids in the order [join]
   draws them.  No load moves: every VS starts at 0.0, so each join's
   proportional steal would move exactly 0.0. *)
let join_all t nodes ~n_vs =
  if t.ring_n > 0 then invalid_arg "Dht.join_all: non-empty ring";
  if n_vs < 1 then invalid_arg "Dht.join_all: n_vs < 1";
  if Array.exists (fun (capacity, _) -> capacity <= 0.0) nodes then
    invalid_arg "Dht.join_all: capacity <= 0";
  let n_nodes = Array.length nodes in
  if n_nodes > 0 && n_vs > (Vs_draw.max_draws - 1) / n_nodes then
    invalid_arg "Dht.join_all: more than 2^30 - 1 VSs";
  let first = t.next_node_id in
  let keys =
    Vs_draw.sorted_keys (n_nodes * n_vs) ~hash:(fun ~draw ~salt ->
        vs_hash ~node_id:(first + (draw / n_vs)) ~index:(draw mod n_vs) ~salt)
  in
  let vss =
    Array.map
      (fun k ->
        {
          vs_id = Vs_draw.key_id k;
          owner = first + (Vs_draw.key_draw k / n_vs);
          load = 0.0;
        })
      keys
  in
  (* The ring slot of each draw; [keys] becomes the ring's ids. *)
  let slot = Array.make (Array.length keys) 0 in
  for i = 0 to Array.length keys - 1 do
    slot.(Vs_draw.key_draw keys.(i)) <- i;
    keys.(i) <- Vs_draw.key_id keys.(i)
  done;
  Array.iteri
    (fun i (capacity, underlay) ->
      let n = add_node t ~capacity ~underlay in
      for index = 0 to n_vs - 1 do
        n.vss <- vss.(slot.((i * n_vs) + index)) :: n.vss
      done)
    nodes;
  t.ring_vss <- vss;
  t.ring_ids <- keys;
  t.ring_n <- Array.length vss;
  t.ring_version <- t.ring_version + t.ring_n;
  touch_loads t

let can_depart t id = is_alive t id && List.length t.nodes.(id).vss < t.ring_n

(* Remove each VS of [vss] from the ring, in list order, and mark it
   off the ring; its successor at that moment, past the VSs already
   removed, absorbs its region and load, so every float is the same as
   one at a time.  The ring arrays are compacted once. *)
let delete_vss t vss =
  let ring_n = t.ring_n in
  let removed = Bytes.make ring_n '\000' in
  let first = ref ring_n in
  List.iter
    (fun v ->
      let i = lower_bound t v.vs_id in
      assert (i < ring_n && t.ring_ids.(i) = v.vs_id);
      Bytes.set removed i '\001';
      first := Int.min !first i;
      let j = ref (if i = ring_n - 1 then 0 else i + 1) in
      while Bytes.get removed !j = '\001' do
        j := if !j = ring_n - 1 then 0 else !j + 1
      done;
      let succ = t.ring_vss.(!j) in
      succ.load <- succ.load +. v.load;
      v.owner <- -1)
    vss;
  let j = ref !first in
  for i = !first to ring_n - 1 do
    if Bytes.get removed i = '\000' then begin
      t.ring_ids.(!j) <- t.ring_ids.(i);
      t.ring_vss.(!j) <- t.ring_vss.(i);
      incr j
    end
  done;
  t.ring_version <- t.ring_version + ring_n - !j;
  t.ring_n <- !j

let crash t id =
  let n = node t id in
  if n.alive then begin
    if not (can_depart t id) then
      invalid_arg "Dht.crash: the node hosts every VS; the ring would empty";
    delete_vss t n.vss;
    n.vss <- [];
    n.alive <- false;
    t.live_dead <- t.live_dead + 1;
    t.n_alive <- t.n_alive - 1;
    touch_loads t
  end

let remove_vs t v =
  if not (on_ring v) then invalid_arg "Dht.remove_vs: no such VS";
  if t.ring_n <= 1 then invalid_arg "Dht.remove_vs: cannot remove the last VS";
  let owner = node t v.owner in
  owner.vss <- List.filter (fun x -> x != v) owner.vss;
  delete_vss t [ v ];
  touch_loads t

(* An on-ring VS is in its owner's list, so the pass that finds it
   there cuts it out. *)
let transfer_vs t v ~to_node =
  if not (on_ring v) then invalid_arg "Dht.transfer_vs: no such VS";
  let src = node t v.owner in
  let rec cut = function
    | [] -> invalid_arg "Dht.transfer_vs: no such VS"
    | x :: rest -> if x == v then rest else x :: cut rest
  in
  let rest = cut src.vss in
  let dst = node t to_node in
  if not dst.alive then invalid_arg "Dht.transfer_vs: dead target";
  if v.owner <> to_node then begin
    src.vss <- rest;
    dst.vss <- v :: dst.vss;
    v.owner <- to_node;
    touch_loads t
  end

(* --- Routing ---------------------------------------------------------- *)

(* The largest power of two <= d, for 1 <= d < 2^32: smear the top
   bit rightwards, then keep it. *)
let top_bit d =
  let d = d lor (d lsr 1) in
  let d = d lor (d lsr 2) in
  let d = d lor (d lsr 4) in
  let d = d lor (d lsr 8) in
  let d = d lor (d lsr 16) in
  d - (d lsr 1)

(* The ring index of the source VS [from], for the function [fn]. *)
let lookup_source t fn ~from =
  if t.ring_n = 0 then invalid_arg (fn ^ ": empty ring");
  let fi = indexed_lower_bound t from in
  if fi = t.ring_n || t.ring_ids.(fi) <> from then
    invalid_arg (fn ^ ": unknown source VS");
  fi

(* The owner's ring index for a key whose predecessor is at [pi]. *)
let owner_idx t pi = if pi = t.ring_n - 1 then 0 else pi + 1

(* The next hop from ring index [ci] <> [pi] towards the owner of a
   key whose predecessor p is at [pi]: greedy Chord routing on the
   ring, tracking the current hop by its index.  p is the last id
   strictly before the key; its successor owns the key, so routing
   ends with the hop from p.  Before that, Chord's closest preceding
   finger — the largest successor(cur + 2^k) strictly inside
   (cur, key) — is the finger of the largest k with
   2^k <= dist_cw(cur, p): every smaller target lies in (cur, p], so
   its successor does too, and every larger one lies past p, where no
   id precedes the key.  So each hop is one search, over the indices
   (ci, pi] alone: below 2^32 when the target did not wrap, from 0
   when it did.  The bucket index finds the first id >= target
   anywhere on the ring, and clamping it to the hop's range gives that
   range's search: the ids are sorted, and the first id >= target lies
   past ci because ids.(ci) = cur < target. *)
let next_hop t ~pi ci =
  let ids = t.ring_ids and n = t.ring_n in
  let cur = ids.(ci) in
  let target = Id.add cur (top_bit (Id.distance_cw cur ids.(pi))) in
  let i = indexed_lower_bound t target in
  if target < cur then Int.min i (pi + 1)
  else
    let i = Int.min i (if pi > ci then pi + 1 else n) in
    if i = n then 0 else i

let lookup t ~from ~key =
  let fi = lookup_source t "Dht.lookup" ~from in
  t.lookup_count <- t.lookup_count + 1;
  let pi = predecessor_strict_idx t key in
  let oi = owner_idx t pi in
  if oi = fi then (t.ring_vss.(fi), 0)
  else begin
    let ci = ref fi and hops = ref 1 in
    while !ci <> pi do
      ci := next_hop t ~pi !ci;
      incr hops;
      (* Every hop moves clockwise without passing p, so the hops
         visit distinct VSs. *)
      assert (!hops <= t.ring_n)
    done;
    t.hop_count <- t.hop_count + !hops;
    (t.ring_vss.(oi), !hops)
  end

(* The first put of a batch fixes its ring version and stamps; each put
   finds its source and key predecessor and joins its predecessor's
   group (a new group takes the next stamp).  Ring indices fit the
   entry's 31 bits ([join_all] caps a ring below 2^30 VSs), and batch
   positions fit the 30 bits [publish]'s delivery codes give them: a
   batch of 2^30 puts would need 8 GB for [st_src] alone. *)
let stage t ~from ~key =
  let fi = lookup_source t "Dht.stage" ~from in
  let r = t.st_n in
  if r > 0 && t.ring_version <> t.st_version then
    invalid_arg "Dht.stage: the ring changed since the batch's first put";
  if r = 0 then begin
    if Array.length t.memo < t.ring_n then
      t.memo <- Array.make (Int.max t.ring_n (2 * Array.length t.memo)) 0;
    t.st_version <- t.ring_version;
    t.st_base <- t.stamp + 1
  end;
  let pi = predecessor_strict_idx t key in
  let s = t.memo.(pi) lsr 6 in
  let g =
    if s >= t.st_base then s - t.st_base
    else begin
      t.stamp <- t.stamp + 1;
      let g = t.stamp - t.st_base in
      t.g_last <- reserve t.g_last g 0;
      t.g_pred <- reserve t.g_pred g 0;
      t.memo.(pi) <- (t.stamp lsl 6) lor 1;
      t.g_last.(g) <- -1;
      t.g_pred.(g) <- pi;
      g
    end
  in
  t.st_src <- reserve t.st_src r 0;
  t.st_key <- reserve t.st_key r 0;
  t.st_src.(r) <- (fi lsl 31) lor (t.g_last.(g) + 1);
  t.st_key.(r) <- key;
  t.g_last.(g) <- r;
  t.st_n <- r + 1

(* Hops from ring index [ci] towards the predecessor at [pi], through
   the memo stamped [s]: greedy routing towards a fixed predecessor is
   a tree, hops(ci) = 1 + hops(next ci), so a walk stops at the first
   index this group has already routed from.  Each hop at least halves
   the distance to the predecessor, so a walk is at most 33 hops, and
   the hop count fits the memo's 6 bits. *)
let rec memo_hops t ~pi s ci =
  let e = t.memo.(ci) in
  if e lsr 6 = s then e land 63
  else if ci = pi then 1
  else begin
    let h = 1 + memo_hops t ~pi s (next_hop t ~pi ci) in
    t.memo.(ci) <- (s lsl 6) lor h;
    h
  end

(* Sorts [a.(lo) .. a.(hi - 1)] ascending through [buf], which holds at
   least [(hi - lo) / 2] entries: a top-down merge sort that skips the
   merge of two halves already in order. *)
let rec sort_ints (a : int array) (buf : int array) lo hi =
  if hi - lo > 1 then begin
    let mid = (lo + hi) / 2 in
    sort_ints a buf lo mid;
    sort_ints a buf mid hi;
    if a.(mid - 1) > a.(mid) then begin
      let n = mid - lo in
      Array.blit a lo buf 0 n;
      let i = ref 0 and j = ref mid and k = ref lo in
      while !i < n do
        if !j < hi && a.(!j) < buf.(!i) then begin
          a.(!k) <- a.(!j);
          incr j
        end
        else begin
          a.(!k) <- buf.(!i);
          incr i
        end;
        incr k
      done
    end
  end

(* Each group routes its puts through the memo under its own stamp, in
   any order; here, in its owners' ring order from the last, so each
   owner's puts fill one slice of [dl_code], from the end, with
   [(d lsl 30) lor r], for put [r] at distance [d] counter-clockwise
   from the owner's last point — its id, or the top of the ring when
   one VS owns all of it.  Sorting each slice orders the owner's keys
   counter-clockwise from that point and the puts under one key in put
   order.  A chain runs newest first, so a slice starts in put order,
   and one under a single key is already sorted. *)
let publish ?hops t ~f =
  let m = t.st_n in
  t.st_n <- 0;
  if m = 0 then 0
  else begin
    if t.ring_version <> t.st_version then
      invalid_arg "Dht.publish: the ring changed since the batch's first put";
    if Array.length t.dl_code < m then begin
      t.dl_code <- Array.make (Array.length t.st_src) 0;
      t.dl_buf <- Array.make (Array.length t.st_src / 2) 0
    end;
    (* The groups in their owners' ring order: each owner index above
       its group, sorted. *)
    let n_groups = t.stamp - t.st_base + 1 in
    for g = 0 to n_groups - 1 do
      t.g_pred.(g) <- (owner_idx t t.g_pred.(g) lsl 31) lor g
    done;
    sort_ints t.g_pred t.dl_buf 0 n_groups;
    let total = ref 0 and pos = ref m in
    for j = n_groups - 1 downto 0 do
      let g = t.g_pred.(j) land 0x7fffffff and oi = t.g_pred.(j) lsr 31 in
      let pi = if oi = 0 then t.ring_n - 1 else oi - 1 in
      let last =
        if t.ring_n = 1 then Id.space_size - 1 else t.ring_ids.(oi)
      in
      let hi = !pos and r = ref t.g_last.(g) in
      while !r >= 0 do
        let e = t.st_src.(!r) in
        let fi = e lsr 31 in
        let h =
          if fi = oi then 0 else memo_hops t ~pi (t.st_base + g) fi
        in
        total := !total + h;
        (match hops with Some a -> a.(!r) <- h | None -> ());
        t.st_src.(!r) <- oi;
        decr pos;
        t.dl_code.(!pos) <-
          (Id.distance_cw t.st_key.(!r) last lsl 30) lor !r;
        r := (e land 0x7fffffff) - 1
      done;
      sort_ints t.dl_code t.dl_buf !pos hi
    done;
    t.lookup_count <- t.lookup_count + m;
    t.hop_count <- t.hop_count + !total;
    for j = 0 to m - 1 do
      let r = t.dl_code.(j) land ((1 lsl 30) - 1) in
      f r t.ring_vss.(t.st_src.(r))
    done;
    !total
  end

let lookups_performed t = t.lookup_count
let hops_used t = t.hop_count
