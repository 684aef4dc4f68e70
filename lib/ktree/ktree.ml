module Id = P2plb_idspace.Id
module Region = P2plb_idspace.Region
module Dht = P2plb_chord.Dht

type node = int

(* Everything a whole-tree traversal can tell, gathered while [build]
   plants the tree (or by [summarize]'s pass after a mutation) and
   cached until the next structural mutation. *)
type summary = {
  s_nodes : int;
  s_depth : int;
  s_leaves : int;
  (* host -> deepest-first leaf planted in it *)
  s_assignment : (Id.t, node) Hashtbl.t;
  s_slots : int;
  (* host -> number of KT nodes planted in it *)
  s_per_host : (Id.t, int) Hashtbl.t;
}

(* Node n is index n into the six node arrays.  The root is 0.  The
   children of an internal node n fill the K-block
   [first.(n), first.(n) + k): slot i is the i-th part of n's region,
   and a slot whose part is empty has [len] 0.  Blocks come from the
   end of the used range ([size]) or from [free], where a prune returns
   the blocks of the subtrees it drops. *)
type t = {
  k : int;
  mutable start : int array;  (* region start *)
  mutable len : int array;  (* region length *)
  mutable depth_of : int array;  (* root = 0 *)
  mutable host : int array;  (* id of the hosting VS *)
  mutable first : int array;  (* first child's index; -1 for a leaf *)
  (* Slot ordinal in the current leaf assignment; -1 when not an
     assigned leaf.  Scratch state rebuilt with the summary. *)
  mutable tag : int array;
  mutable size : int;
  mutable free : int list;
  mutable msg : int;
  mutable last_rounds : int;
  mutable repaired : int;
  mutable repair_msg : int;
  mutable obs : P2plb_obs.Obs.t option;
  (* Filled by [build], rebuilt lazily by [summarize]; shared by every
     caller in a round; cleared at each structural mutation (plant /
     prune / re-host). *)
  mutable summary : summary option;
  (* [Dht.ring_version] at which the tree was last made consistent
     with the ring (by [build] or a full [repair]/[refresh] walk).
     While the ring keeps that version, both walks are no-ops. *)
  mutable stamp : int;
}

let set_obs t obs = t.obs <- Some obs

let obs_event t name attrs =
  match t.obs with
  | None -> ()
  | Some o ->
    P2plb_obs.Trace.point (P2plb_obs.Obs.trace o) name ~attrs;
    P2plb_obs.Registry.add
      (P2plb_obs.Registry.counter (P2plb_obs.Obs.metrics o) name)
      1

let invalidate_summary t = t.summary <- None

let k t = t.k
let root _ = 0
let is_leaf t n = t.first.(n) < 0
let node_depth t n = t.depth_of.(n)
let host t n = t.host.(n)
let region t n = Region.make ~start:t.start.(n) ~len:t.len.(n)

(* The region's centre, [Region.center]: a region below the root never
   wraps, and the root's centre is 2^31. *)
let key t n = t.start.(n) + (t.len.(n) / 2)

(* Child [i] of [n], or -1 when that slot holds none. *)
let child t n i =
  let b = t.first.(n) in
  if b >= 0 && t.len.(b + i) > 0 then b + i else -1

let children t n =
  Array.init t.k (fun i ->
      let c = child t n i in
      if c < 0 then None else Some c)

let messages t = t.msg
let rounds_last_sweep t = t.last_rounds
let repairs t = t.repaired
let repair_messages t = t.repair_msg

let reset_counters t =
  t.msg <- 0;
  t.last_rounds <- 0;
  t.repaired <- 0;
  t.repair_msg <- 0

(* ---- storage ----------------------------------------------------------- *)

(* A K-block of fresh leaf slots, all empty until planted.  The node
   arrays grow by half when full: a doubling builder raised peak RSS. *)
let alloc_block t =
  let b =
    match t.free with
    | b :: rest ->
      t.free <- rest;
      b
    | [] ->
      let b = t.size in
      let cap = Array.length t.len in
      if b + t.k > cap then begin
        let cap' = Int.max (b + t.k) (cap + (cap / 2)) in
        let extend a =
          let a' = Array.make cap' (-1) in
          Array.blit a 0 a' 0 b;
          a'
        in
        t.start <- extend t.start;
        t.len <- extend t.len;
        t.depth_of <- extend t.depth_of;
        t.host <- extend t.host;
        t.first <- extend t.first;
        t.tag <- extend t.tag
      end;
      t.size <- b + t.k;
      b
  in
  for c = b to b + t.k - 1 do
    t.len.(c) <- 0;
    t.first.(c) <- -1;
    t.tag.(c) <- -1
  done;
  b

(* The K-block of [n]'s children, allocated if [n] is a leaf. *)
let child_block t n =
  if t.first.(n) >= 0 then t.first.(n)
  else begin
    let b = alloc_block t in
    t.first.(n) <- b;
    b
  end

(* Returns the block at [b] and every block below it to the free list. *)
let rec release t b =
  for c = b to b + t.k - 1 do
    if t.len.(c) > 0 && t.first.(c) >= 0 then release t t.first.(c)
  done;
  t.free <- b :: t.free

(* Drops [n]'s children, calling [charge] once per child. *)
let prune t n ~charge =
  let b = t.first.(n) in
  if b >= 0 then begin
    for c = b to b + t.k - 1 do
      if t.len.(c) > 0 then charge ()
    done;
    release t b;
    t.first.(n) <- -1;
    invalidate_summary t
  end

(* [f i start len] for each part of [n]'s region, in order:
   [Region.split]'s arithmetic, the first [len mod k] parts one point
   longer. *)
let iter_parts t n f =
  let len = t.len.(n) in
  let base = len / t.k and extra = len mod t.k in
  let pos = ref t.start.(n) in
  for i = 0 to t.k - 1 do
    let li = if i < extra then base + 1 else base in
    f i !pos li;
    pos := !pos + li
  done

(* ---- planting and growth ----------------------------------------------- *)

(* The VS [host] covers [n]'s whole region: [n] needs no children
   (§3.1's leaf test). *)
let covered_by dht host t n =
  match Dht.vs_of_id dht host with
  | None -> false
  | Some v -> Region.covers ~outer:(Dht.region_of_vs dht v) ~inner:(region t n)

(* Plants the KT node for part [start, start + len) at slot [c]. *)
let plant ~route_messages t dht ~from c start len depth =
  let key = start + (len / 2) in
  let host =
    if route_messages then begin
      let v, hops = Dht.lookup dht ~from ~key in
      t.msg <- t.msg + hops;
      v
    end
    else Dht.owner_of_key dht key
  in
  t.start.(c) <- start;
  t.len.(c) <- len;
  t.depth_of.(c) <- depth;
  t.host.(c) <- host.Dht.vs_id;
  t.first.(c) <- -1;
  t.tag.(c) <- -1

(* Plants [n]'s missing child [i] from [from], charging its message. *)
let plant_child ~route_messages t dht ~from n i start len =
  let c = child_block t n + i in
  plant ~route_messages t dht ~from c start len (t.depth_of.(n) + 1);
  t.msg <- t.msg + 1;
  invalidate_summary t;
  c

(* First index in [lo, hi) of the sorted [ids] whose id is >= [x];
   [hi] when there is none. *)
let rec lower_bound ids x lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if ids.(mid) < x then lower_bound ids x (mid + 1) hi
    else lower_bound ids x lo mid

(* Node count of a tree over [n] VSs (DESIGN.md §2): the top ≈ log_K n
   levels are shared, and below them each VS's id forces its own chain
   of K-ary splits, ≈ n·K·(log_K 2^32 − log_K n) nodes. *)
let estimated_nodes ~k n =
  let log_k x = Float.log x /. Float.log (float_of_int k) in
  let levels =
    Float.max 1.0 (log_k (float_of_int Id.space_size) -. log_k (float_of_int n))
  in
  1 + (k * int_of_float (Float.ceil (float_of_int n *. levels)))

(* The tree's shape is a function of the sorted VS ids alone, so
   [build] recurses over index ranges of them instead of asking the
   DHT about every node.  A region [start, start + len) below the root
   never wraps, and its ids form a slice [lo, hi) of [ids].
   - Host: successor of the centre, the first id >= it.  Searching the
     slice gives an index in [lo, hi]; [hi] is the first id past the
     region, and index n (past the last id) wraps to 0.
   - Leaf: the host's arc (pred, host] covers the region exactly when
     no id lies in [start, last), i.e. the slice is empty or holds only
     [last].  The root covers the whole ring, so it is a leaf exactly
     when there is one VS.
   - Children: [Region.split]'s parts, each slice cut off by a search
     for the part's end.
   The same preorder pass gathers what [summarize] would: per ring
   position, the KT nodes planted there and the deepest-first leaf. *)
let build ?(route_messages = false) ~k dht =
  if k < 2 then invalid_arg "Ktree.build: k < 2";
  let n = Dht.n_vs dht in
  if n = 0 then invalid_arg "Ktree.build: empty ring";
  let ids = Array.make n Id.zero in
  ignore
    (Dht.fold_vs dht ~init:0 ~f:(fun i v ->
         ids.(i) <- v.Dht.vs_id;
         i + 1));
  let cap = estimated_nodes ~k n in
  let t =
    {
      k;
      start = Array.make cap 0;
      len = Array.make cap 0;
      depth_of = Array.make cap 0;
      host = Array.make cap 0;
      first = Array.make cap (-1);
      tag = Array.make cap (-1);
      size = 1;
      free = [];
      msg = 1;
      last_rounds = 0;
      repaired = 0;
      repair_msg = 0;
      obs = None;
      summary = None;
      stamp = Dht.ring_version dht;
    }
  in
  let per_host = Array.make n 0 in
  let best = Array.make n (-1) in
  let max_depth = ref 0 and n_leaves = ref 0 in
  let rec plant_slice ~from c start len depth lo hi =
    let key = start + (len / 2) in
    let j = lower_bound ids key lo hi in
    let h = if j = n then 0 else j in
    if route_messages && depth > 0 then
      t.msg <- t.msg + snd (Dht.lookup dht ~from ~key);
    t.start.(c) <- start;
    t.len.(c) <- len;
    t.depth_of.(c) <- depth;
    t.host.(c) <- ids.(h);
    if depth > !max_depth then max_depth := depth;
    per_host.(h) <- per_host.(h) + 1;
    let leaf =
      if depth = 0 then n = 1
      else hi = lo || (hi = lo + 1 && ids.(lo) = start + len - 1)
    in
    if leaf then begin
      let b = best.(h) in
      if b < 0 || t.depth_of.(b) < depth then begin
        if b >= 0 then t.tag.(b) <- -1;
        t.tag.(c) <- !n_leaves;
        best.(h) <- c
      end;
      incr n_leaves
    end
    else begin
      let b = alloc_block t in
      t.first.(c) <- b;
      let base = len / k and extra = len mod k in
      let pos = ref start and clo = ref lo in
      for i = 0 to k - 1 do
        let li = if i < extra then base + 1 else base in
        if li > 0 then begin
          let chi = lower_bound ids (!pos + li) !clo hi in
          t.msg <- t.msg + 1;
          plant_slice ~from:ids.(h) (b + i) !pos li (depth + 1) !clo chi;
          clo := chi
        end;
        pos := !pos + li
      done
    end
  in
  (* The root is hosted by the VS owning the centre of the whole
     space, located deterministically (§3.1.1). *)
  plant_slice ~from:Id.zero 0 Id.zero Id.space_size 0 0 n;
  (* Tables filled in ring order from the per-position arrays; winners
     renumbered 0 .. n_slots - 1 by their preorder leaf index. *)
  let assignment = Hashtbl.create n and per_host_tbl = Hashtbl.create n in
  let winners = Array.make n 0 and n_slots = ref 0 and nodes = ref 0 in
  for h = 0 to n - 1 do
    if per_host.(h) > 0 then Hashtbl.add per_host_tbl ids.(h) per_host.(h);
    nodes := !nodes + per_host.(h);
    let w = best.(h) in
    if w >= 0 then begin
      Hashtbl.add assignment ids.(h) w;
      winners.(!n_slots) <- w;
      incr n_slots
    end
  done;
  let winners = Array.sub winners 0 !n_slots in
  Array.sort (fun a b -> Int.compare t.tag.(a) t.tag.(b)) winners;
  Array.iteri (fun slot w -> t.tag.(w) <- slot) winners;
  t.summary <-
    Some
      {
        s_nodes = !nodes;
        s_depth = !max_depth;
        s_leaves = !n_leaves;
        s_assignment = assignment;
        s_slots = !n_slots;
        s_per_host = per_host_tbl;
      };
  t

(* Preorder from [n]. *)
let rec iter_from t f n =
  f n;
  let b = t.first.(n) in
  if b >= 0 then
    for c = b to b + t.k - 1 do
      if t.len.(c) > 0 then iter_from t f c
    done

(* One preorder pass: sizes, the host -> deepest-leaf table and the
   per-host node counts.  A leaf that currently wins its host is tagged
   with its preorder leaf index, every other node with -1; a second
   preorder pass renumbers the winners 0 .. n_slots - 1 in that order
   (ordinals back the array-indexed rendezvous in Vsa/Lbi). *)
let summarize t =
  let assignment : (Id.t, node) Hashtbl.t = Hashtbl.create 256 in
  let per_host : (Id.t, int) Hashtbl.t = Hashtbl.create 256 in
  let nodes = ref 0 and depth = ref 0 and n_leaves = ref 0 in
  iter_from t
    (fun n ->
      let h = t.host.(n) and d = t.depth_of.(n) in
      incr nodes;
      if d > !depth then depth := d;
      (match Hashtbl.find per_host h with
      | c -> Hashtbl.replace per_host h (c + 1)
      | exception Not_found -> Hashtbl.replace per_host h 1);
      if is_leaf t n then begin
        (match Hashtbl.find assignment h with
        | existing when t.depth_of.(existing) >= d -> t.tag.(n) <- -1
        | existing ->
          t.tag.(existing) <- -1;
          t.tag.(n) <- !n_leaves;
          Hashtbl.replace assignment h n
        | exception Not_found ->
          t.tag.(n) <- !n_leaves;
          Hashtbl.replace assignment h n);
        incr n_leaves
      end
      else t.tag.(n) <- -1)
    0;
  let slots = ref 0 in
  iter_from t
    (fun n ->
      if t.tag.(n) >= 0 then begin
        t.tag.(n) <- !slots;
        incr slots
      end)
    0;
  let s =
    {
      s_nodes = !nodes;
      s_depth = !depth;
      s_leaves = !n_leaves;
      s_assignment = assignment;
      s_slots = !slots;
      s_per_host = per_host;
    }
  in
  t.summary <- Some s;
  s

let summary t = match t.summary with Some s -> s | None -> summarize t
let depth t = (summary t).s_depth
let n_nodes t = (summary t).s_nodes
let n_leaves t = (summary t).s_leaves

(* Preorder meets the leaves in identifier order: below the root no
   region wraps, and children follow their parent's region in order. *)
let leaves t =
  let acc = ref [] in
  iter_from t (fun n -> if is_leaf t n then acc := n :: !acc) 0;
  List.rev !acc

(* ---- upkeep ------------------------------------------------------------ *)

let refresh_walk ~route_messages t dht =
  (* One level of growth: plant the missing children of [n] but do
     not descend into existing subtrees — [visit] below recurses and
     grows each level as it reaches it, so the refresh stays
     O(nodes).  One message per created child; descent heartbeats
     are visit's. *)
  let grow_level n =
    iter_parts t n (fun i start len ->
        if len > 0 && child t n i < 0 then
          ignore
            (plant_child ~route_messages t dht ~from:t.host.(n) n i start len))
  in
  let rec visit n =
    let old_host = t.host.(n) in
    (* Re-resolve the hosting VS (the old one may be gone or may no
       longer own the centre key after churn / VS transfer). *)
    let new_host =
      if route_messages then begin
        let v, hops = Dht.lookup dht ~from:old_host ~key:(key t n) in
        t.msg <- t.msg + hops;
        v.Dht.vs_id
      end
      else (Dht.owner_of_key dht (key t n)).Dht.vs_id
    in
    if new_host <> old_host then begin
      t.host.(n) <- new_host;
      invalidate_summary t;
      (* Re-planting notifies parent and children: at most K+1 msgs. *)
      t.msg <- t.msg + t.k + 1;
      obs_event t "kt/rehost" [ ("depth", P2plb_obs.Trace.Int t.depth_of.(n)) ]
    end;
    if covered_by dht new_host t n then
      (* Became a leaf: prune redundant children. *)
      prune t n ~charge:(fun () -> t.msg <- t.msg + 1)
    else begin
      grow_level n;
      for i = 0 to t.k - 1 do
        let c = child t n i in
        if c >= 0 then begin
          t.msg <- t.msg + 1 (* heartbeat *);
          visit c
        end
      done
    end
  in
  (* The root's host may have changed; it is re-located determin-
     istically at the centre of the whole space. *)
  visit 0;
  t.stamp <- Dht.ring_version dht

let refresh ?(route_messages = false) t dht =
  if (not route_messages) && t.stamp = Dht.ring_version dht then
    (* The tree is consistent with this very ring: [refresh_walk]
       would re-resolve every host to itself, grow and prune nothing,
       and only exchange its heartbeats, one per parent-child edge.
       (With [route_messages] the walk's lookups are charged, so it
       runs.) *)
    t.msg <- t.msg + n_nodes t - 1
  else refresh_walk ~route_messages t dht

(* A KT node is broken when its hosting VS left the ring (its owner
   died) or still exists but no longer owns the node's centre key (the
   region boundary moved under churn). *)
let broken dht t n =
  match Dht.vs_of_id dht t.host.(n) with
  | None -> true
  | Some _ -> (Dht.owner_of_key dht (key t n)).Dht.vs_id <> t.host.(n)

let repair_walk ~route_messages t dht =
  let repaired_now = ref 0 in
  (* Re-plant one broken node.  [from] is a VS known to be live (the
     nearest live ancestor's host) that issues the recovery lookup; if
     even that is gone, the key's new owner discovers the orphan
     locally (zero hops). *)
  let replant ~from n =
    let key = key t n in
    let host =
      if route_messages then begin
        let from =
          match Dht.vs_of_id dht from with
          | Some _ -> from
          | None -> (Dht.owner_of_key dht key).Dht.vs_id
        in
        let v, hops = Dht.lookup dht ~from ~key in
        t.msg <- t.msg + hops;
        t.repair_msg <- t.repair_msg + hops;
        v
      end
      else Dht.owner_of_key dht key
    in
    t.host.(n) <- host.Dht.vs_id;
    invalidate_summary t;
    (* Re-planting notifies parent and children: at most K+1 msgs. *)
    t.msg <- t.msg + t.k + 1;
    t.repair_msg <- t.repair_msg + t.k + 1;
    t.repaired <- t.repaired + 1;
    obs_event t "kt/replant" [ ("depth", P2plb_obs.Trace.Int t.depth_of.(n)) ];
    incr repaired_now
  in
  let rec visit ~from n =
    if broken dht t n then replant ~from n;
    if covered_by dht t.host.(n) t n then
      (* Became a leaf (e.g. its host absorbed a dead neighbour's
         region): prune now-redundant children. *)
      prune t n ~charge:(fun () ->
          t.msg <- t.msg + 1;
          t.repair_msg <- t.repair_msg + 1)
    else
      (* Grow the missing children, healing every child before
         descending so recovery lookups are never issued from a dead
         VS, and charge the re-grown subtree to the repair budget. *)
      iter_parts t n (fun i start len ->
          let from = t.host.(n) in
          let c = child t n i in
          if len > 0 && c < 0 then begin
            let m0 = t.msg in
            let c = plant_child ~route_messages t dht ~from n i start len in
            t.repair_msg <- t.repair_msg + (t.msg - m0);
            visit ~from c
          end
          else if c >= 0 then visit ~from c)
  in
  visit ~from:t.host.(0) 0;
  t.stamp <- Dht.ring_version dht;
  !repaired_now

let repair ?(route_messages = false) t dht =
  (* Nothing can be broken while the ring has not changed since the
     tree was last made consistent with it. *)
  if t.stamp = Dht.ring_version dht then 0
  else repair_walk ~route_messages t dht

let check_consistent t dht =
  let error = ref None in
  let fail fmt = Format.kasprintf (fun s -> if !error = None then error := Some s) fmt in
  if not (Region.is_whole (region t 0)) then fail "root region is not the whole ring";
  let seen_leaf_vs = Hashtbl.create 256 in
  let rec visit n =
    let key = key t n and host = t.host.(n) in
    if key <> Region.center (region t n) then
      fail "KT node key %a is not its region centre" Id.pp key;
    (match Dht.vs_of_id dht host with
    | None -> fail "KT node at %a planted in missing VS %a" Id.pp key Id.pp host
    | Some v ->
      let owner = Dht.owner_of_key dht key in
      if owner.Dht.vs_id <> v.Dht.vs_id then
        fail "KT node at %a planted in VS %a but key owned by %a" Id.pp key
          Id.pp host Id.pp owner.Dht.vs_id;
      let leaf = is_leaf t n in
      let cov = Region.covers ~outer:(Dht.region_of_vs dht v) ~inner:(region t n) in
      if leaf && not cov then
        fail "leaf at %a not covered by its hosting VS" Id.pp key;
      if (not leaf) && cov then
        fail "covered node at %a still has children" Id.pp key;
      if leaf then Hashtbl.replace seen_leaf_vs host ());
    if not (is_leaf t n) then
      iter_parts t n (fun i start len ->
          let c = child t n i in
          if c >= 0 then begin
            if t.start.(c) <> start || t.len.(c) <> len then
              fail "child %d of node at %a has wrong region" i Id.pp key;
            if t.depth_of.(c) <> t.depth_of.(n) + 1 then
              fail "child depth mismatch under %a" Id.pp key;
            visit c
          end
          else if len > 0 then
            fail "missing child %d (non-empty region) under %a" i Id.pp key)
  in
  visit 0;
  (* Every VS must host at least one leaf (§3.1). *)
  Dht.fold_vs dht ~init:() ~f:(fun () v ->
      if not (Hashtbl.mem seen_leaf_vs v.Dht.vs_id) then
        fail "VS %a hosts no KT leaf" Id.pp v.Dht.vs_id);
  match !error with None -> Ok () | Some e -> Error e

let fold_nodes t ~init ~f =
  let acc = ref init in
  iter_from t (fun n -> acc := f !acc n) 0;
  !acc

let leaf_assignment t = (summary t).s_assignment
let leaf_slot t n = t.tag.(n)
let n_leaf_slots t = (summary t).s_slots

let host_nodes t host =
  match Hashtbl.find (summary t).s_per_host host with
  | c -> c
  | exception Not_found -> 0

(* ---- sweeps ------------------------------------------------------------ *)

(* Both sweeps read the node arrays directly: they do not mutate the
   tree, so no block is allocated (and no array replaced) under them. *)

let sweep_up t ~at_leaf ~empty ~merge ~at_node =
  let len = t.len and first = t.first and k = t.k in
  let max_depth = ref 0 in
  let rec visit n d =
    if d > !max_depth then max_depth := d;
    let b = first.(n) in
    if b < 0 then at_leaf n
    else begin
      let acc = ref empty in
      for c = b to b + k - 1 do
        if len.(c) > 0 then begin
          t.msg <- t.msg + 1;
          let r = visit c (d + 1) in
          acc := merge !acc r
        end
      done;
      at_node n !acc
    end
  in
  let result = visit 0 0 in
  t.last_rounds <- !max_depth + 1;
  result

let sweep_down t ~at_root ~split ~at_leaf =
  let len = t.len and first = t.first and k = t.k in
  let max_depth = ref 0 in
  let rec visit n d value =
    if d > !max_depth then max_depth := d;
    let b = first.(n) in
    if b < 0 then at_leaf n value
    else
      for c = b to b + k - 1 do
        if len.(c) > 0 then begin
          t.msg <- t.msg + 1;
          visit c (d + 1) (split c value)
        end
      done
  in
  visit 0 0 at_root;
  t.last_rounds <- !max_depth + 1
