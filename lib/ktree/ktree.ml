module Id = P2plb_idspace.Id
module Region = P2plb_idspace.Region
module Dht = P2plb_chord.Dht
module Ring_index = P2plb_chord.Ring_index

(* A KT node packed into one int: its region start (bits 0-31), its
   depth (bits 32-37), whether its region is one point longer than the
   shortest of its depth (bit 38) and, for an assigned leaf, its slot +
   1 (bits 39 up, 0 for any other node).  The regions of depth d are
   [lens.(d)] = 2^32 / K^d points long, or one more (each split hands
   the remainder out one point at a time), and the non-empty ones
   partition the ring, so start and depth name the node. *)
type node = int

let depth_shift = 32 (* Id.bits, written out so shifts compile to constants *)
let long_shift = 38
let slot_shift = 39
let pos_mask = (1 lsl 39) - 1
let start_of n = n land 0xFFFF_FFFF
let depth_of n = (n lsr depth_shift) land 63

let[@inline] pack ~lens start depth len =
  start lor (depth lsl depth_shift) lor ((len - lens.(depth)) lsl long_shift)

let len_of ~lens n = lens.(depth_of n) + ((n lsr long_shift) land 1)

(* [lens.(d)] for every depth a tree can reach: a region of one point
   is a leaf, so depth 32 is the deepest. *)
let base_lens ~k =
  let lens = Array.make (Id.bits + 1) Id.space_size in
  for d = 1 to Id.bits do
    lens.(d) <- lens.(d - 1) / k
  done;
  lens

(* The tree is a function of the sorted VS ids (DESIGN.md §2), so it
   stores them and the figures of one summary walk over them, indexed
   by ring position; [fold_down] derives every node on the fly. *)
type snap = {
  ids : int array;
  per_host : int array;  (* KT nodes hosted by ids.(h) *)
  win : node array;  (* ids.(h)'s assigned leaf, slot included *)
  nodes : int;
  depth : int;
  leaves : int;
}

type t = {
  k : int;
  lens : int array;
  (* The tree is exactly the canonical tree of [snap.ids], the ring at
     [Dht.ring_version] [stamp]: [build], [refresh] and [repair] each
     leave the canonical tree of the ring they saw.  While the ring
     keeps that version, both walks are no-ops. *)
  mutable snap : snap;
  mutable stamp : int;
  (* Bucket index over [snap.ids], versioned by [stamp]. *)
  index : Ring_index.t;
  mutable msg : int;
  mutable last_rounds : int;
  mutable repaired : int;
  mutable repair_msg : int;
  mutable obs : P2plb_obs.Obs.t option;
}

let set_obs t obs = t.obs <- Some obs
(* The index is mutable: each copy builds its own. *)
let copy t = { t with index = Ring_index.create () }

let obs_event t name depth =
  match t.obs with
  | None -> ()
  | Some o ->
    P2plb_obs.Trace.point (P2plb_obs.Obs.trace o) name
      ~attrs:[ ("depth", P2plb_obs.Trace.Int depth) ]

let k t = t.k
let node_depth _ n = depth_of n
let leaf_slot _ n = (n lsr slot_shift) - 1
let messages t = t.msg
let rounds_last_sweep t = t.last_rounds
let repairs t = t.repaired
let repair_messages t = t.repair_msg

let reset_counters t =
  t.msg <- 0;
  t.last_rounds <- 0;
  t.repaired <- 0;
  t.repair_msg <- 0

(* ---- deriving nodes from the ids ---------------------------------------- *)

(* A KT node below the root owns a region [start, start + len) that
   never wraps, and the ids in it form a slice [lo, hi) of the sorted
   [ids]. *)

(* First index in [lo, hi) of the sorted [ids] whose id is >= [x];
   [hi] when there is none.  [Ring_index.lower_bound_in] is the same
   search, but this is the KT's hottest call and a call into another
   library is never inlined under dune's dev profile (-opaque). *)
let rec lower_bound (ids : int array) (x : int) lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if ids.(mid) < x then lower_bound ids x (mid + 1) hi
    else lower_bound ids x lo mid

(* Ring position of the host, the successor of the region's centre:
   searching the slice gives an index in [lo, hi], where [hi] is the
   first id past the region and index n (past the last id) wraps to
   0.  The root's centre is 2^31. *)
let successor ids key lo hi =
  let j = lower_bound ids key lo hi in
  if j = Array.length ids then 0 else j

let host_index ids start len lo hi = successor ids (start + (len / 2)) lo hi

(* §3.1's leaf test: the host's arc (pred, host] covers the region
   exactly when no id lies in [start, last), i.e. the slice is empty
   or holds only [last].  The root covers the whole ring, so it is a
   leaf exactly when there is one VS. *)
let[@inline] is_leaf_slice ids depth start len lo hi =
  if depth = 0 then Array.length ids = 1
  else hi = lo || (hi = lo + 1 && ids.(lo) = start + len - 1)

(* The parts of a region of depth [d - 1] ([Region.split]'s): it is
   [lens.(d - 1)] or one more point long, so its parts are [lens.(d)]
   points long, the first [len - k * lens.(d)] of them one more, a
   count that reaches [k] only when every part is.  No division. *)
let[@inline] part_base ~k ~lens len d =
  if len - (k * lens.(d)) = k then lens.(d) + 1 else lens.(d)

let[@inline] part_extra ~k ~lens len d =
  let e = len - (k * lens.(d)) in
  if e = k then 0 else e

(* [f start len] for each non-empty part, in order. *)
let iter_parts ~k ~lens start len d f =
  let base = part_base ~k ~lens len d and extra = part_extra ~k ~lens len d in
  let pos = ref start in
  for i = 0 to k - 1 do
    let li = if i < extra then base + 1 else base in
    if li > 0 then f !pos li;
    pos := !pos + li
  done

let n_parts ~k len = Int.min k len

(* The node value: an assigned leaf carries its slot. *)
let[@inline] node_of ~lens win start len depth h =
  let p = pack ~lens start depth len and w = win.(h) in
  if w land pos_mask = p then w else p

(* The walk that derives every node of [t], in preorder, pushing a
   value down: the root holds [v0], an internal child [c] holds [down
   c v] of its parent's [v], and a leaf [c] is visited as [at_leaf c
   v] with its parent's [v] ([v0] for a root leaf).  Below a node, a
   part's slice is cut off by a search for the part's end, except in a
   chain (a slice of one id x): there the parts left of x's part are
   leaves hosted by x, those right of it leaves hosted by x's
   successor, and x's part is a leaf exactly when x is its last point,
   so nothing is searched below the last fork.  A leaf's slice is
   empty or holds only its last point, so its host is the id at the
   slice's start.  It serves [check_consistent], [fold_nodes],
   [leaves] and the routed build; the sweeps visit only the skeleton
   ([sweep]). *)
let fold_down t ~down ~at_leaf v0 =
  let k = t.k and lens = t.lens and ids = t.snap.ids and win = t.snap.win in
  let n = Array.length ids in
  let[@inline] leaf start len depth lo v =
    at_leaf (node_of ~lens win start len depth (if lo = n then 0 else lo)) v
  in
  let rec inner start len depth lo hi v =
    let d = depth + 1 in
    let base = part_base ~k ~lens len d and extra = part_extra ~k ~lens len d in
    let pos = ref start in
    if hi = lo + 1 then begin
      let x = ids.(lo) in
      for i = 0 to k - 1 do
        let cs = !pos and cl = if i < extra then base + 1 else base in
        if cl > 0 then
          if cs + cl - 1 <= x then leaf cs cl d lo v
          else if cs > x then leaf cs cl d hi v
          else inner cs cl d lo hi (down (pack ~lens cs d cl) v);
        pos := cs + cl
      done
    end
    else begin
      let clo = ref lo in
      for i = 0 to k - 1 do
        let cs = !pos and cl = if i < extra then base + 1 else base in
        if cl > 0 then begin
          let lo = !clo in
          let hi = lower_bound ids (cs + cl) lo hi in
          if is_leaf_slice ids d cs cl lo hi then leaf cs cl d lo v
          else inner cs cl d lo hi (down (pack ~lens cs d cl) v);
          clo := hi
        end;
        pos := cs + cl
      done
    end
  in
  if n = 1 then at_leaf (node_of ~lens win 0 Id.space_size 0 0) v0
  else inner 0 Id.space_size 0 0 n v0

(* Set bits of [x], for 0 <= x < 2^62. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0F0F_0F0F_0F0F_0F0F in
  let x = x + (x lsr 8) in
  let x = x + (x lsr 16) in
  (x + (x lsr 32)) land 0x7F

(* The summary in one walk over the forks, with each chain taken a
   level at a time, or at K = 2 read off its id's bits: per ring
   position the KT nodes planted there and the deepest-first leaf, then
   the slots.  A leaf replaces its host's current one only when
   strictly deeper, so a chain may count its right-hand leaves on the
   way down: they are all hosted by x's successor, one level each, and
   nothing before them in preorder is.  Slots number the assigned
   leaves in preorder, which is identifier order.  Every VS hosts a
   leaf (§3.1), and a leaf hosted by ids.(h) lies in its arc
   (ids.(h-1), ids.(h)]; so the order is ring order, except that
   ids.(0)'s leaf comes last when it lies past the last id. *)
let summarize ~k ~lens ids =
  let n = Array.length ids in
  let per_host = Array.make n 0 and win = Array.make n (-1) in
  let nodes = ref 0 and depth = ref 0 and leaves = ref 0 in
  let plant h m =
    per_host.(h) <- per_host.(h) + m;
    nodes := !nodes + m
  in
  let offer h leaf =
    let w = win.(h) in
    if w < 0 || depth_of w < depth_of leaf then win.(h) <- leaf
  in
  (* A leaf [start, start + len) of depth [d] with no id but maybe its
     last point, so hosted by ids.(lo). *)
  let leaf start len d lo =
    let h = if lo = n then 0 else lo in
    plant h 1;
    incr leaves;
    depth := Int.max !depth d;
    offer h (pack ~lens start d len)
  in
  (* The chain of the one id x = ids.(lo), from the region [start,
     start + len) at depth [d] down to x's leaf: one internal node per
     level, hosted by x or by its successor, whose parts left of x's
     are leaves hosted by x and right of it leaves hosted by the
     successor.  x's best leaf is its own or, if it has left siblings,
     the first of them; the successor's is the first right leaf of the
     deepest level that has one. *)
  let chain start len d lo =
    let x = ids.(lo) and right = if lo + 1 = n then 0 else lo + 1 in
    let on_x = ref 1 and on_right = ref 0 and n_leaves = ref 1 in
    let x_win = ref (-1) and right_win = ref (-1) in
    let start = ref start and len = ref len and d = ref d in
    while x <> !start + !len - 1 do
      if !start + (!len / 2) <= x then incr on_x else incr on_right;
      let cd = !d + 1 in
      let base = part_base ~k ~lens !len cd and extra = part_extra ~k ~lens !len cd in
      (* x's part is part [xi], [xs, xs + xl). *)
      let xi = ref 0 and xs = ref !start in
      let xl = ref (if extra > 0 then base + 1 else base) in
      while !xs + !xl <= x do
        xs := !xs + !xl;
        incr xi;
        xl := if !xi < extra then base + 1 else base
      done;
      let xi = !xi and xs = !xs and xl = !xl in
      let n_right = (if base = 0 then extra else k) - xi - 1 in
      if xi > 0 then
        x_win := pack ~lens !start cd (if extra > 0 then base + 1 else base);
      if n_right > 0 then
        right_win := pack ~lens (xs + xl) cd (if xi + 1 < extra then base + 1 else base);
      on_x := !on_x + xi;
      on_right := !on_right + n_right;
      n_leaves := !n_leaves + xi + n_right;
      start := xs;
      len := xl;
      d := cd
    done;
    plant lo !on_x;
    plant right !on_right;
    leaves := !leaves + !n_leaves;
    depth := Int.max !depth !d;
    offer lo (if depth_of !x_win = !d then !x_win else pack ~lens !start !d !len);
    if !right_win >= 0 then offer right !right_win
  in
  (* [chain] at K = 2, where the region of depth [d] is the aligned
     2^m points [start, start + 2^m), m = 32 - d, and each level halves
     it: the level's bit of [off = x - start], from bit m - 1 down, says
     whether x lies in the right half (the node and its left leaf are
     hosted by x) or the left one (the node and its right leaf by the
     successor).  The chain stops when x is its region's last point,
     i.e. after the bits above [off]'s t trailing ones; bit t is 0, so
     the deepest level puts x's leaf [x - 2^t + 1, x] on the left and
     the successor's, its sibling, on the right. *)
  let chain2 start len d lo =
    let x = ids.(lo) and right = if lo + 1 = n then 0 else lo + 1 in
    let m = Id.bits - d and off = x - start in
    let t = popcount (off lxor (off + 1)) - 1 in
    if t >= m then leaf start len d lo
    else begin
      let levels = m - t and ones = popcount off - t in
      plant lo (1 + (2 * ones));
      plant right (2 * (levels - ones));
      leaves := !leaves + 1 + levels;
      let fd = d + levels and size = 1 lsl t in
      depth := Int.max !depth fd;
      offer lo (pack ~lens (x - size + 1) fd size);
      offer right (pack ~lens (x + 1) fd size)
    end
  in
  let rec visit start len d lo hi =
    if hi = lo then leaf start len d lo
    else if hi = lo + 1 then
      if k = 2 then chain2 start len d lo else chain start len d lo
    else if k = 2 then begin
      (* The centre splits the region: one search finds both the host
         and the halves' slices. *)
      let half = len / 2 in
      let mid = lower_bound ids (start + half) lo hi in
      plant (if mid = n then 0 else mid) 1;
      visit start half (d + 1) lo mid;
      visit (start + half) half (d + 1) mid hi
    end
    else begin
      plant (host_index ids start len lo hi) 1;
      let clo = ref lo in
      iter_parts ~k ~lens start len (d + 1) (fun cs cl ->
          let chi = lower_bound ids (cs + cl) !clo hi in
          visit cs cl (d + 1) !clo chi;
          clo := chi)
    end
  in
  if n = 1 then leaf 0 Id.space_size 0 0
  else visit 0 Id.space_size 0 0 n;
  let first = if n > 1 && start_of win.(0) > ids.(n - 1) then 1 else 0 in
  for slot = 0 to n - 1 do
    let h = (first + slot) mod n in
    win.(h) <- win.(h) lor ((slot + 1) lsl slot_shift)
  done;
  { ids; per_host; win; nodes = !nodes; depth = !depth; leaves = !leaves }

let region t n = Region.make ~start:(start_of n) ~len:(len_of ~lens:t.lens n)

(* The region's centre, [Region.center]. *)
let key t n = start_of n + (len_of ~lens:t.lens n / 2)

let build ?(route_messages = false) ~k dht =
  if k < 2 then invalid_arg "Ktree.build: k < 2";
  if Dht.n_vs dht = 0 then invalid_arg "Ktree.build: empty ring";
  let lens = base_lens ~k in
  let s = summarize ~k ~lens (Dht.vs_ids dht) in
  let t =
    {
      k;
      lens;
      snap = s;
      stamp = Dht.ring_version dht;
      index = Ring_index.create ();
      (* the root's plant, then one message per created child *)
      msg = s.nodes;
      last_rounds = 0;
      repaired = 0;
      repair_msg = 0;
      obs = None;
    }
  in
  if route_messages then begin
    (* Each child's plant is a lookup from its parent's host, in
       preorder; the root is located deterministically (§3.1.1). *)
    let ids = s.ids in
    let plant c from =
      let v, hops = Dht.lookup dht ~from ~key:(key t c) in
      t.msg <- t.msg + hops;
      v.Dht.vs_id
    in
    fold_down t ~down:plant
      ~at_leaf:(fun c from -> ignore (plant c from))
      ids.(host_index ids 0 Id.space_size 0 (Array.length ids))
  end;
  t

let depth t = t.snap.depth
let n_nodes t = t.snap.nodes
let n_leaves t = t.snap.leaves

let leaf_assignment t =
  let tbl = Hashtbl.create (Array.length t.snap.ids) in
  Array.iteri (fun h id -> Hashtbl.add tbl id t.snap.win.(h)) t.snap.ids;
  tbl

(* Every VS hosts exactly one assigned leaf. *)
let n_leaf_slots t = Array.length t.snap.ids

(* Ring position of the VS [id], or -1 when it is not on the tree's
   ring: one indexed search. *)
let position t id =
  let ids = t.snap.ids in
  let j = Ring_index.lower_bound t.index ~version:t.stamp ids (Array.length ids) id in
  if j < Array.length ids && ids.(j) = id then j else -1

let vs_slot t id =
  let h = position t id in
  if h < 0 then -1 else leaf_slot t t.snap.win.(h)

let host_nodes t id =
  let h = position t id in
  if h < 0 then 0 else t.snap.per_host.(h)

(* ---- single-node accessors ----------------------------------------------- *)

(* A leaf only when the ring holds one VS. *)
let root t =
  if Array.length t.snap.ids = 1 then t.snap.win.(0)
  else pack ~lens:t.lens 0 0 Id.space_size

let host t n =
  let ids = t.snap.ids in
  ids.(successor ids (key t n) 0 (Array.length ids))

(* [is_leaf_slice]: no id in [start, last). *)
let is_leaf t n =
  let ids = t.snap.ids and start = start_of n in
  if depth_of n = 0 then Array.length ids = 1
  else
    let lo = lower_bound ids start 0 (Array.length ids) in
    lo = Array.length ids || ids.(lo) >= start + len_of ~lens:t.lens n - 1

(* Non-empty parts come first: only the first [len mod k] parts of a
   region shorter than K are. *)
let children t n =
  let ids = t.snap.ids and kids = Array.make t.k None in
  if not (is_leaf t n) then begin
    let start = start_of n and d = depth_of n + 1 in
    let i = ref 0 and lo = ref (lower_bound ids start 0 (Array.length ids)) in
    iter_parts ~k:t.k ~lens:t.lens start (len_of ~lens:t.lens n) d (fun cs cl ->
        let hi = lower_bound ids (cs + cl) !lo (Array.length ids) in
        let h = host_index ids cs cl !lo hi in
        kids.(!i) <- Some (node_of ~lens:t.lens t.snap.win cs cl d h);
        lo := hi;
        incr i)
  end;
  kids

(* ---- whole-tree walks ----------------------------------------------------- *)

let fold_nodes t ~init ~f =
  let acc = ref init in
  let visit c () = acc := f !acc c in
  if Array.length t.snap.ids > 1 then visit (root t) ();
  fold_down t ~down:visit ~at_leaf:visit ();
  !acc

(* Preorder meets the leaves in identifier order: below the root no
   region wraps, and children follow their parent's region in order. *)
let leaves t =
  let acc = ref [] in
  fold_down t ~down:(fun _ () -> ()) ~at_leaf:(fun c () -> acc := c :: !acc) ();
  List.rev !acc

let check_consistent t dht =
  let error = ref None in
  let fail fmt = Format.kasprintf (fun s -> if !error = None then error := Some s) fmt in
  if not (Region.is_whole (region t (root t))) then
    fail "root region is not the whole ring";
  let seen_leaf_vs = Hashtbl.create 256 in
  (* Every KT node is planted at its region's centre in the VS owning
     it, and is a leaf exactly when that VS covers the region. *)
  let check ~leaf c =
    let key = key t c and host = host t c in
    match Dht.vs_of_id dht host with
    | None -> fail "KT node at %a planted in missing VS %a" Id.pp key Id.pp host
    | Some v ->
      let owner = Dht.owner_of_key dht key in
      if owner.Dht.vs_id <> v.Dht.vs_id then
        fail "KT node at %a planted in VS %a but key owned by %a" Id.pp key
          Id.pp host Id.pp owner.Dht.vs_id;
      let cov = Region.covers ~outer:(Dht.region_of_vs dht v) ~inner:(region t c) in
      if leaf && not cov then
        fail "leaf at %a not covered by its hosting VS" Id.pp key;
      if (not leaf) && cov then
        fail "covered node at %a still has children" Id.pp key;
      if leaf then Hashtbl.replace seen_leaf_vs host ()
  in
  if Array.length t.snap.ids > 1 then check ~leaf:false (root t);
  fold_down t
    ~down:(fun c () -> check ~leaf:false c)
    ~at_leaf:(fun c () -> check ~leaf:true c)
    ();
  (* Every VS must host at least one leaf (§3.1). *)
  Dht.fold_vs dht ~init:() ~f:(fun () v ->
      if not (Hashtbl.mem seen_leaf_vs v.Dht.vs_id) then
        fail "VS %a hosts no KT leaf" Id.pp v.Dht.vs_id);
  match !error with None -> Ok () | Some e -> Error e

(* ---- upkeep --------------------------------------------------------------- *)

(* [refresh] and [repair] on a moved ring walk the canonical tree of
   the current ids [ids] in preorder, alongside the tree they replace:
   the canonical tree of the snapshot's ids [oids].  A node of the new
   tree was in the old one when its parent was, and was internal
   there; its old slice is [olo, ohi), and [olo] is -1 for a node
   planted by this walk.  An old node's old host is the successor of
   its centre among [oids]; a planted node is planted at the current
   owner.

   A walk skips the subtrees the ring change did not touch.  A node's
   host and leafness, and so its children's, depend only on the ids in
   its region and the first id past it (the host when no id in the
   region follows the centre).  So a child of an old internal node
   whose region holds the same ids in both rings, and whose first id
   past the region, wrapping to the smallest, is the same in both,
   roots a subtree that is identical in both trees: nothing in it is
   re-hosted, pruned or planted. *)

let old_host oids start len olo ohi host =
  if olo < 0 then host else oids.(host_index oids start len olo ohi)

let old_internal oids depth start len olo ohi =
  olo >= 0 && not (is_leaf_slice oids depth start len olo ohi)

(* Whether [ids.(lo .. hi - 1)] and [oids.(olo .. ohi - 1)] hold the
   same ids.  A scan stops at the first id that differs, and a slice
   that matches is scanned once, then skipped. *)
let same_ids ids lo hi oids olo ohi =
  let rec from i = i = hi || (ids.(i) = oids.(olo + i - lo) && from (i + 1)) in
  hi - lo = ohi - olo && from lo

(* Each non-empty part not [skip]ped, with its new slice, and its old
   slice when the node was internal in the old tree (else -1, -1):
   [f start len lo hi olo ohi]. *)
let iter_children ~k ~lens ~skip ids oids ~was_internal start len depth lo hi
    olo ohi f =
  let n = Array.length ids and on = Array.length oids in
  let clo = ref lo and colo = ref olo in
  iter_parts ~k ~lens start len (depth + 1) (fun cs cl ->
      let chi = lower_bound ids (cs + cl) !clo hi in
      if was_internal then begin
        let cohi = lower_bound oids (cs + cl) !colo ohi in
        if
          not
            (skip
            && ids.(if chi = n then 0 else chi)
               = oids.(if cohi = on then 0 else cohi)
            && same_ids ids !clo chi oids !colo cohi)
        then f cs cl !clo chi !colo cohi;
        colo := cohi
      end
      else f cs cl !clo chi (-1) (-1);
      clo := chi)

(* [refresh]'s walk: each node re-resolves its host (a lookup from its
   current host when routed) and is re-hosted if that moved; a node
   that became a leaf prunes its old children; one that is internal
   plants all its missing children before visiting any.  [refresh]
   charges the heartbeats. *)
let refresh_walk ~route_messages t dht ids =
  let k = t.k and oids = t.snap.ids in
  let lookup ~from ~key =
    if route_messages then t.msg <- t.msg + snd (Dht.lookup dht ~from ~key)
  in
  let rec visit start len depth lo hi olo ohi =
    let host = ids.(host_index ids start len lo hi) in
    let old = old_host oids start len olo ohi host in
    lookup ~from:old ~key:(start + (len / 2));
    if host <> old then begin
      (* Re-planting notifies parent and children: at most K+1 msgs. *)
      t.msg <- t.msg + k + 1;
      obs_event t "kt/rehost" depth
    end;
    let was_internal = old_internal oids depth start len olo ohi in
    if is_leaf_slice ids depth start len lo hi then begin
      if was_internal then t.msg <- t.msg + n_parts ~k len
    end
    else begin
      if not was_internal then
        iter_parts ~k ~lens:t.lens start len (depth + 1) (fun cs cl ->
            lookup ~from:host ~key:(cs + (cl / 2));
            t.msg <- t.msg + 1);
      iter_children ~k ~lens:t.lens ~skip:(not route_messages) ids oids
        ~was_internal start len depth lo hi olo ohi
        (fun cs cl clo chi colo cohi ->
          visit cs cl (depth + 1) clo chi colo cohi)
    end
  in
  visit 0 Id.space_size 0 0 (Array.length ids) 0 (Array.length oids)

(* [repair]'s walk: an old node whose host moved is broken and is
   re-planted by a lookup from [from], the nearest ancestor's host (or,
   if that VS is gone, locally by the key's new owner); a node that
   became a leaf prunes its old children; one that is internal plants
   each missing child just before visiting it.  Everything is charged
   to the repair budget too.  Its lookups are made only at re-planted
   and planted nodes, so it always skips. *)
let repair_walk ~route_messages t dht ids =
  let k = t.k and oids = t.snap.ids in
  let repaired_now = ref 0 in
  let charge m =
    t.msg <- t.msg + m;
    t.repair_msg <- t.repair_msg + m
  in
  let rec visit ~from start len depth lo hi olo ohi =
    let host = ids.(host_index ids start len lo hi) in
    let key = start + (len / 2) in
    if old_host oids start len olo ohi host <> host then begin
      if route_messages then begin
        let from = if Option.is_some (Dht.vs_of_id dht from) then from else host in
        charge (snd (Dht.lookup dht ~from ~key))
      end;
      (* Re-planting notifies parent and children: at most K+1 msgs. *)
      charge (k + 1);
      t.repaired <- t.repaired + 1;
      obs_event t "kt/replant" depth;
      incr repaired_now
    end;
    let was_internal = old_internal oids depth start len olo ohi in
    if is_leaf_slice ids depth start len lo hi then begin
      if was_internal then charge (n_parts ~k len)
    end
    else
      iter_children ~k ~lens:t.lens ~skip:true ids oids ~was_internal start
        len depth lo hi olo ohi (fun cs cl clo chi colo cohi ->
          if not was_internal then begin
            if route_messages then
              charge (snd (Dht.lookup dht ~from:host ~key:(cs + (cl / 2))));
            charge 1
          end;
          visit ~from:host cs cl (depth + 1) clo chi colo cohi)
  in
  let on = Array.length oids in
  visit ~from:oids.(host_index oids 0 Id.space_size 0 on) 0 Id.space_size 0 0
    (Array.length ids) 0 on;
  !repaired_now

let refresh ?(route_messages = false) t dht =
  let version = Dht.ring_version dht in
  (* On the tree's own ring an unrouted walk would re-resolve every
     host to itself and grow and prune nothing; a routed one is charged
     its lookups, so it runs, and looks up every node, so it cannot
     skip. *)
  if t.stamp <> version then begin
    let ids = Dht.vs_ids dht in
    let s = summarize ~k:t.k ~lens:t.lens ids in
    refresh_walk ~route_messages t dht ids;
    t.snap <- s;
    t.stamp <- version
  end
  else if route_messages then
    refresh_walk ~route_messages t dht t.snap.ids;
  (* One heartbeat per parent-child edge of the refreshed tree. *)
  t.msg <- t.msg + t.snap.nodes - 1

let repair ?(route_messages = false) t dht =
  let version = Dht.ring_version dht in
  (* Nothing can be broken while the ring has not changed since the
     tree was last made consistent with it. *)
  if t.stamp = version then 0
  else begin
    let ids = Dht.vs_ids dht in
    let r = repair_walk ~route_messages t dht ids in
    t.snap <- summarize ~k:t.k ~lens:t.lens ids;
    t.stamp <- version;
    r
  end

(* ---- sweeps --------------------------------------------------------------- *)

(* Each direction traverses every edge once, so each charges one
   message per edge and takes depth + 1 rounds. *)
let swept t =
  t.msg <- t.msg + t.snap.nodes - 1;
  t.last_rounds <- t.snap.depth + 1

type 'a sweep =
  at_leaf:(slot:int -> depth:int -> 'a) ->
  merge:('a -> 'a -> 'a) ->
  lift:(hi:int -> lo:int -> 'a -> 'a) ->
  'a

(* The skeleton of the assigned leaves of [slots], a strictly
   increasing run of m >= 1 slots: slot [s] is the leaf of
   ids.((first + s) mod n) ([summarize]).  Consecutive leaves
   of the run fork at their deepest common ancestor: regions nest and
   the earlier leaf lies before the later one's start [x], so it is
   the deepest ancestor of the earlier leaf whose region ends past
   [x].  [starts] and [ends] hold the regions of the previous leaf's
   ancestors, by depth; below the fork, the new leaf's are found by
   descending towards [x] one part at a time, or at K = 2, where a
   region of depth c is aligned to its [lens.(c)] points, by masking
   [x]'s low bits.  The open skeleton nodes
   form a stack of strictly increasing depths: for each, [sd] is its
   depth, [slo] the deepest level not yet lifted (a leaf's parent's, a
   fork's own) and [sv] its value so far. *)
let walk t slots ~at_leaf ~merge ~lift =
  let k = t.k and lens = t.lens and ids = t.snap.ids and win = t.snap.win in
  let n = Array.length ids and depth = t.snap.depth in
  let first = if leaf_slot t win.(0) = 0 then 0 else 1 in
  let starts = Array.make (depth + 1) 0
  and ends = Array.make (depth + 1) Id.space_size in
  let sd = Array.make (depth + 2) 0 and slo = Array.make (depth + 2) 0 in
  let sv = ref [||] and sp = ref 0 in
  let push d lo v =
    sd.(!sp) <- d;
    slo.(!sp) <- lo;
    !sv.(!sp) <- v;
    incr sp
  in
  (* Complete every open node deeper than [a]: lift it to just below
     its skeleton parent and merge it there.  That parent is the open
     node beneath it unless that one lies above [a]; then it is a new
     fork at depth [a] (-1 past the last leaf, above the root). *)
  let close a =
    while sd.(!sp - 1) > a do
      decr sp;
      let i = !sp in
      let into_open = i > 0 && sd.(i - 1) >= a in
      let p = if into_open then sd.(i - 1) else a in
      let v =
        if slo.(i) > p then lift ~hi:(p + 1) ~lo:slo.(i) !sv.(i) else !sv.(i)
      in
      if into_open then !sv.(i - 1) <- merge !sv.(i - 1) v else push a a v
    done
  in
  let prev = ref 0 in
  for i = 0 to Array.length slots - 1 do
    let s = slots.(i) in
    let leaf = win.((first + s) mod n) in
    let d = depth_of leaf and x = start_of leaf in
    let a = ref (if i = 0 then 0 else !prev - 1) in
    if i > 0 then begin
      while ends.(!a) <= x do
        decr a
      done;
      close !a
    end;
    if k = 2 then
      for c = !a + 1 to d - 1 do
        let cs = x land lnot (lens.(c) - 1) in
        starts.(c) <- cs;
        ends.(c) <- cs + lens.(c)
      done
    else
      for c = !a + 1 to d - 1 do
        let start = starts.(c - 1) in
        let len = ends.(c - 1) - start in
        let base = part_base ~k ~lens len c and extra = part_extra ~k ~lens len c in
        (* The first [extra] parts are one point longer. *)
        let big = extra * (base + 1) and off = x - start in
        let part = if off < big then base + 1 else base in
        let cs =
          if off < big then start + (off / part * part)
          else start + big + ((off - big) / part * part)
        in
        starts.(c) <- cs;
        ends.(c) <- cs + part
      done;
    let v = at_leaf ~slot:s ~depth:d in
    if i = 0 then sv := Array.make (depth + 2) v;
    push d (d - 1) v;
    prev := d
  done;
  close (-1);
  !sv.(0)

let sweep t slots ~empty ~at_leaf ~merge ~lift =
  let v =
    if Array.length slots = 0 then empty
    else walk t slots ~at_leaf ~merge ~lift
  in
  swept t;
  v

let broadcast t = swept t

(* ---- leaf reports --------------------------------------------------------- *)

module Reports = struct
  type tree = t

  (* Arrival-ordered (leaf slot, report) pairs. *)
  type 'r t = {
    tree : tree;
    mutable slots : int array;
    mutable items : 'r array;
    mutable n : int;
  }

  let create tree = { tree; slots = [||]; items = [||]; n = 0 }

  let add log id r =
    let slot = vs_slot log.tree id in
    if slot >= 0 then begin
      if log.n = Array.length log.slots then begin
        let cap = if log.n = 0 then 1024 else 2 * log.n in
        let slots = Array.make cap 0 and items = Array.make cap r in
        Array.blit log.slots 0 slots 0 log.n;
        Array.blit log.items 0 items 0 log.n;
        log.slots <- slots;
        log.items <- items
      end;
      log.slots.(log.n) <- slot;
      log.items.(log.n) <- r;
      log.n <- log.n + 1
    end

  (* Group the reports per slot: counts, prefix sums, then a stable
     scatter, so slot [s]'s reports are [grouped.(starts.(s))] up to
     [starts.(s + 1)] in arrival order; the slots with a report are
     listed in increasing order as they are counted. *)
  let sweep ?sweep:walk log ~empty ~at_leaf ~merge ~lift =
    let n_slots = n_leaf_slots log.tree in
    let starts = Array.make (n_slots + 1) 0 in
    let n_occupied = ref 0 in
    for i = 0 to log.n - 1 do
      let s = log.slots.(i) in
      if starts.(s + 1) = 0 then incr n_occupied;
      starts.(s + 1) <- starts.(s + 1) + 1
    done;
    let occupied = Array.make !n_occupied 0 in
    n_occupied := 0;
    for s = 1 to n_slots do
      if starts.(s) > 0 then begin
        occupied.(!n_occupied) <- s - 1;
        incr n_occupied
      end;
      starts.(s) <- starts.(s) + starts.(s - 1)
    done;
    let grouped =
      if log.n = 0 then [||]
      else begin
        let g = Array.make log.n log.items.(0) in
        let cursor = Array.copy starts in
        for i = 0 to log.n - 1 do
          let s = log.slots.(i) in
          g.(cursor.(s)) <- log.items.(i);
          cursor.(s) <- cursor.(s) + 1
        done;
        g
      end
    in
    let walk =
      match walk with Some f -> f | None -> sweep log.tree occupied ~empty
    in
    walk
      ~at_leaf:(fun ~slot ~depth ->
        let lo = starts.(slot) and hi = starts.(slot + 1) in
        if lo = hi then empty else at_leaf ~depth grouped ~lo ~hi)
      ~merge ~lift
end
