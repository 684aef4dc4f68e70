module Id = P2plb_idspace.Id
module Region = P2plb_idspace.Region
module Dht = P2plb_chord.Dht

type kt_node = {
  region : Region.t;
  key : Id.t;
  depth : int;
  mutable host : Id.t;
  mutable children : kt_node option array;
  (* Slot ordinal of this node in the current leaf assignment (see
     {!leaf_assignment}); -1 when the node is not an assigned leaf.
     Scratch state rebuilt with the assignment cache. *)
  mutable tag : int;
}

(* Everything a whole-tree traversal can tell, gathered while [build]
   plants the tree (or by [summarize]'s one pass after a mutation) and
   cached until the next structural mutation. *)
type summary = {
  s_nodes : int;
  s_depth : int;
  s_leaves : int;
  (* host -> deepest-first leaf planted in it *)
  s_assignment : (Id.t, kt_node) Hashtbl.t;
  s_slots : int;
  (* host -> number of KT nodes planted in it *)
  s_per_host : (Id.t, int) Hashtbl.t;
}

type t = {
  k : int;
  mutable root : kt_node;
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
let root t = t.root
let is_leaf n = Array.for_all (fun c -> c = None) n.children
let messages t = t.msg
let rounds_last_sweep t = t.last_rounds
let repairs t = t.repaired
let repair_messages t = t.repair_msg

let reset_counters t =
  t.msg <- 0;
  t.last_rounds <- 0;
  t.repaired <- 0;
  t.repair_msg <- 0

(* The VS hosting a KT node covers the KT node's whole region: the KT
   node needs no children (§3.1's leaf test). *)
let covered_by_host dht n =
  match Dht.vs_of_id dht n.host with
  | None -> false
  | Some v -> Region.covers ~outer:(Dht.region_of_vs dht v) ~inner:n.region

let plant ~route_messages t dht ~from region depth =
  let key = Region.center region in
  let host =
    if route_messages then begin
      let v, hops = Dht.lookup dht ~from ~key in
      t.msg <- t.msg + hops;
      v
    end
    else Dht.owner_of_key dht key
  in
  {
    region;
    key;
    depth;
    host = host.Dht.vs_id;
    children = Array.make t.k None;
    tag = -1;
  }

(* Grow the subtree under [n] until every branch bottoms out in a
   covered (leaf) node.  One message per created child. *)
let rec grow ~route_messages t dht n =
  if not (covered_by_host dht n) then begin
    let parts = Region.split n.region t.k in
    Array.iteri
      (fun i part ->
        if (not (Region.is_empty part)) && n.children.(i) = None then begin
          let child =
            plant ~route_messages t dht ~from:n.host part (n.depth + 1)
          in
          t.msg <- t.msg + 1;
          n.children.(i) <- Some child;
          invalidate_summary t;
          grow ~route_messages t dht child
        end
        else
          match n.children.(i) with
          | Some child -> grow ~route_messages t dht child
          | None -> ())
      parts
  end

(* First index in [lo, hi) of the sorted [ids] whose id is >= [x];
   [hi] when there is none. *)
let rec lower_bound ids x lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if ids.(mid) < x then lower_bound ids x (mid + 1) hi
    else lower_bound ids x lo mid

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
  let per_host = Array.make n 0 in
  let best = Array.make n None in
  let msg = ref 1 and nodes = ref 0 and max_depth = ref 0 in
  let n_leaves = ref 0 in
  let rec plant_slice ~from start len depth lo hi =
    let key = start + (len / 2) in
    let j = lower_bound ids key lo hi in
    let h = if j = n then 0 else j in
    if route_messages && depth > 0 then
      msg := !msg + snd (Dht.lookup dht ~from ~key);
    let node =
      {
        region = Region.make ~start ~len;
        key;
        depth;
        host = ids.(h);
        children = Array.make k None;
        tag = -1;
      }
    in
    incr nodes;
    if depth > !max_depth then max_depth := depth;
    per_host.(h) <- per_host.(h) + 1;
    let leaf =
      if depth = 0 then n = 1
      else hi = lo || (hi = lo + 1 && ids.(lo) = start + len - 1)
    in
    if leaf then begin
      (match best.(h) with
      | Some b when b.depth >= depth -> ()
      | prev ->
        Option.iter (fun b -> b.tag <- -1) prev;
        node.tag <- !n_leaves;
        best.(h) <- Some node);
      incr n_leaves
    end
    else begin
      let base = len / k and extra = len mod k in
      let pos = ref start and clo = ref lo in
      for i = 0 to k - 1 do
        let li = if i < extra then base + 1 else base in
        if li > 0 then begin
          let chi = lower_bound ids (!pos + li) !clo hi in
          incr msg;
          node.children.(i) <-
            Some (plant_slice ~from:node.host !pos li (depth + 1) !clo chi);
          clo := chi
        end;
        pos := !pos + li
      done
    end;
    node
  in
  (* The root is hosted by the VS owning the centre of the whole
     space, located deterministically (§3.1.1). *)
  let root = plant_slice ~from:Id.zero Id.zero Id.space_size 0 0 n in
  (* Tables filled in ring order from the per-position arrays; winners
     renumbered 0 .. n_slots - 1 by their preorder leaf index. *)
  let assignment = Hashtbl.create n and per_host_tbl = Hashtbl.create n in
  let winners = Array.make n root and n_slots = ref 0 in
  for h = 0 to n - 1 do
    if per_host.(h) > 0 then Hashtbl.add per_host_tbl ids.(h) per_host.(h);
    match best.(h) with
    | Some w ->
      Hashtbl.add assignment ids.(h) w;
      winners.(!n_slots) <- w;
      incr n_slots
    | None -> ()
  done;
  let winners = Array.sub winners 0 !n_slots in
  Array.sort (fun a b -> Int.compare a.tag b.tag) winners;
  Array.iteri (fun slot w -> w.tag <- slot) winners;
  {
    k;
    root;
    msg = !msg;
    last_rounds = 0;
    repaired = 0;
    repair_msg = 0;
    obs = None;
    summary =
      Some
        {
          s_nodes = !nodes;
          s_depth = !max_depth;
          s_leaves = !n_leaves;
          s_assignment = assignment;
          s_slots = Array.length winners;
          s_per_host = per_host_tbl;
        };
    stamp = Dht.ring_version dht;
  }

(* Preorder; a loop over [children], so a walk allocates nothing per
   node. *)
let rec iter_nodes f n =
  f n;
  let ch = n.children in
  for i = 0 to Array.length ch - 1 do
    match ch.(i) with Some c -> iter_nodes f c | None -> ()
  done

(* One preorder pass: sizes, the host -> deepest-leaf table and the
   per-host node counts.  A leaf that currently wins its host is tagged
   with its preorder leaf index, every other node with -1; the winners
   are then renumbered 0 .. n_slots - 1 in that order (ordinals back
   the array-indexed rendezvous in Vsa/Lbi). *)
let summarize t =
  let assignment : (Id.t, kt_node) Hashtbl.t = Hashtbl.create 256 in
  let per_host : (Id.t, int) Hashtbl.t = Hashtbl.create 256 in
  let nodes = ref 0 and depth = ref 0 and n_leaves = ref 0 in
  iter_nodes
    (fun n ->
      incr nodes;
      if n.depth > !depth then depth := n.depth;
      (match Hashtbl.find per_host n.host with
      | c -> Hashtbl.replace per_host n.host (c + 1)
      | exception Not_found -> Hashtbl.replace per_host n.host 1);
      if is_leaf n then begin
        (match Hashtbl.find assignment n.host with
        | existing when existing.depth >= n.depth -> n.tag <- -1
        | existing ->
          existing.tag <- -1;
          n.tag <- !n_leaves;
          Hashtbl.replace assignment n.host n
        | exception Not_found ->
          n.tag <- !n_leaves;
          Hashtbl.replace assignment n.host n);
        incr n_leaves
      end
      else n.tag <- -1)
    t.root;
  (* Filled in table order, then sorted by the distinct preorder
     indices: the result does not depend on hashing. *)
  let winners = Array.make (Hashtbl.length assignment) t.root in
  let i = ref 0 in
  Hashtbl.iter
    (fun _ n ->
      winners.(!i) <- n;
      incr i)
    assignment;
  Array.sort (fun a b -> Int.compare a.tag b.tag) winners;
  Array.iteri (fun slot n -> n.tag <- slot) winners;
  let s =
    {
      s_nodes = !nodes;
      s_depth = !depth;
      s_leaves = !n_leaves;
      s_assignment = assignment;
      s_slots = Array.length winners;
      s_per_host = per_host;
    }
  in
  t.summary <- Some s;
  s

let summary t = match t.summary with Some s -> s | None -> summarize t
let depth t = (summary t).s_depth
let n_nodes t = (summary t).s_nodes
let n_leaves t = (summary t).s_leaves

let leaves t =
  let acc = ref [] in
  iter_nodes (fun n -> if is_leaf n then acc := n :: !acc) t.root;
  List.sort
    (fun a b -> Id.compare (Region.start a.region) (Region.start b.region))
    !acc

let refresh_walk ~route_messages t dht =
  (* One level of {!grow}: plant the missing children of [n] but do
     not descend into existing subtrees — [visit] below recurses and
     grows each level as it reaches it.  Full [grow] here would make
     the refresh O(nodes * depth): every ancestor re-walks the whole
     subtree.  Message accounting is unchanged (one message per
     created child; descent heartbeats are visit's). *)
  let grow_level n =
    let parts = Region.split n.region t.k in
    Array.iteri
      (fun i part ->
        if (not (Region.is_empty part)) && n.children.(i) = None then begin
          let child =
            plant ~route_messages t dht ~from:n.host part (n.depth + 1)
          in
          t.msg <- t.msg + 1;
          n.children.(i) <- Some child;
          invalidate_summary t
        end)
      parts
  in
  (* Coverage of [n]'s region by an explicit (possibly stale) host. *)
  let covered_by host n =
    match Dht.vs_of_id dht host with
    | None -> false
    | Some v -> Region.covers ~outer:(Dht.region_of_vs dht v) ~inner:n.region
  in
  let rec visit n =
    let old_host = n.host in
    (* Re-resolve the hosting VS (the old one may be gone or may no
       longer own the centre key after churn / VS transfer). *)
    let new_host =
      if route_messages then begin
        let v, hops = Dht.lookup dht ~from:n.host ~key:n.key in
        t.msg <- t.msg + hops;
        v
      end
      else Dht.owner_of_key dht n.key
    in
    if new_host.Dht.vs_id <> n.host then begin
      n.host <- new_host.Dht.vs_id;
      invalidate_summary t;
      (* Re-planting notifies parent and children: at most K+1 msgs. *)
      t.msg <- t.msg + t.k + 1;
      obs_event t "kt/rehost" [ ("depth", P2plb_obs.Trace.Int n.depth) ]
    end;
    if covered_by_host dht n then begin
      (* A non-root node whose re-host just flipped it to covered was
         still uncovered when its parent's refresh pass grew the tree,
         so that pass planted its missing children (lookups issued
         from the stale host) and the prune below then removed them
         again.  Replay that transient plant so message accounting —
         and with it the digest-pinned traces — is identical to the
         historical whole-subtree regrow. *)
      if n.depth > 0 && old_host <> n.host && not (covered_by old_host n)
      then begin
        (* Exactly {!grow}'s body with [n] forced uncovered: plant the
           missing slots (from the stale host) and regrow the existing
           children too — their hosts are still the pre-rehost ones the
           historical pass saw, since visit is top-down and has not
           descended here yet.  The whole subtree is discarded by the
           prune below; only the message count survives. *)
        let parts = Region.split n.region t.k in
        Array.iteri
          (fun i part ->
            if (not (Region.is_empty part)) && n.children.(i) = None then begin
              let child =
                plant ~route_messages t dht ~from:old_host part (n.depth + 1)
              in
              t.msg <- t.msg + 1;
              n.children.(i) <- Some child;
              invalidate_summary t;
              grow ~route_messages t dht child
            end
            else
              match n.children.(i) with
              | Some child -> grow ~route_messages t dht child
              | None -> ())
          parts
      end;
      (* Became a leaf: prune redundant children. *)
      Array.iteri
        (fun i c ->
          match c with
          | Some _ ->
            t.msg <- t.msg + 1;
            n.children.(i) <- None;
            invalidate_summary t
          | None -> ())
        n.children
    end
    else begin
      grow_level n;
      Array.iter
        (function
          | Some c ->
            t.msg <- t.msg + 1 (* heartbeat *);
            visit c
          | None -> ())
        n.children
    end
  in
  (* The root's host may have changed; it is re-located determin-
     istically at the centre of the whole space. *)
  visit t.root;
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
let broken dht n =
  match Dht.vs_of_id dht n.host with
  | None -> true
  | Some _ -> (Dht.owner_of_key dht n.key).Dht.vs_id <> n.host

let repair_walk ~route_messages t dht =
  let repaired_now = ref 0 in
  (* Re-plant one broken node.  [from] is a VS known to be live (the
     nearest live ancestor's host) that issues the recovery lookup; if
     even that is gone, the key's new owner discovers the orphan
     locally (zero hops). *)
  let replant ~from n =
    let host =
      if route_messages then begin
        let from =
          match Dht.vs_of_id dht from with
          | Some _ -> from
          | None -> (Dht.owner_of_key dht n.key).Dht.vs_id
        in
        let v, hops = Dht.lookup dht ~from ~key:n.key in
        t.msg <- t.msg + hops;
        t.repair_msg <- t.repair_msg + hops;
        v
      end
      else Dht.owner_of_key dht n.key
    in
    n.host <- host.Dht.vs_id;
    invalidate_summary t;
    (* Re-planting notifies parent and children: at most K+1 msgs. *)
    t.msg <- t.msg + t.k + 1;
    t.repair_msg <- t.repair_msg + t.k + 1;
    t.repaired <- t.repaired + 1;
    obs_event t "kt/replant" [ ("depth", P2plb_obs.Trace.Int n.depth) ];
    incr repaired_now
  in
  let rec visit ~from n =
    if broken dht n then replant ~from n;
    if covered_by_host dht n then
      (* Became a leaf (e.g. its host absorbed a dead neighbour's
         region): prune now-redundant children. *)
      Array.iteri
        (fun i c ->
          match c with
          | Some _ ->
            t.msg <- t.msg + 1;
            t.repair_msg <- t.repair_msg + 1;
            n.children.(i) <- None;
            invalidate_summary t
          | None -> ())
        n.children
    else begin
      (* Like {!grow}, but heal every child before descending so
         recovery lookups are never issued from a dead VS, and charge
         the re-grown subtree to the repair budget. *)
      let parts = Region.split n.region t.k in
      Array.iteri
        (fun i part ->
          if (not (Region.is_empty part)) && n.children.(i) = None then begin
            let m0 = t.msg in
            let child =
              plant ~route_messages t dht ~from:n.host part (n.depth + 1)
            in
            t.msg <- t.msg + 1;
            t.repair_msg <- t.repair_msg + (t.msg - m0);
            n.children.(i) <- Some child;
            invalidate_summary t;
            visit ~from:n.host child
          end
          else
            match n.children.(i) with
            | Some child -> visit ~from:n.host child
            | None -> ())
        parts
    end
  in
  visit ~from:t.root.host t.root;
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
  if not (Region.is_whole t.root.region) then fail "root region is not the whole ring";
  let seen_leaf_vs = Hashtbl.create 256 in
  let rec visit n =
    if n.key <> Region.center n.region then
      fail "KT node key %a is not its region centre" Id.pp n.key;
    (match Dht.vs_of_id dht n.host with
    | None -> fail "KT node at %a planted in missing VS %a" Id.pp n.key Id.pp n.host
    | Some v ->
      let owner = Dht.owner_of_key dht n.key in
      if owner.Dht.vs_id <> v.Dht.vs_id then
        fail "KT node at %a planted in VS %a but key owned by %a" Id.pp n.key
          Id.pp n.host Id.pp owner.Dht.vs_id;
      let leaf = is_leaf n in
      let cov = Region.covers ~outer:(Dht.region_of_vs dht v) ~inner:n.region in
      if leaf && not cov then
        fail "leaf at %a not covered by its hosting VS" Id.pp n.key;
      if (not leaf) && cov then
        fail "covered node at %a still has children" Id.pp n.key;
      if leaf then Hashtbl.replace seen_leaf_vs n.host ());
    if not (is_leaf n) then begin
      let parts = Region.split n.region t.k in
      for i = 0 to t.k - 1 do
        match n.children.(i) with
        | Some child ->
          if not (Region.equal child.region parts.(i)) then
            fail "child %d of node at %a has wrong region" i Id.pp n.key;
          if child.depth <> n.depth + 1 then
            fail "child depth mismatch under %a" Id.pp n.key;
          visit child
        | None ->
          if not (Region.is_empty parts.(i)) then
            fail "missing child %d (non-empty region) under %a" i Id.pp n.key
      done
    end
  in
  visit t.root;
  (* Every VS must host at least one leaf (§3.1). *)
  Dht.fold_vs dht ~init:() ~f:(fun () v ->
      if not (Hashtbl.mem seen_leaf_vs v.Dht.vs_id) then
        fail "VS %a hosts no KT leaf" Id.pp v.Dht.vs_id);
  match !error with None -> Ok () | Some e -> Error e

let fold_nodes t ~init ~f =
  let acc = ref init in
  iter_nodes (fun n -> acc := f !acc n) t.root;
  !acc

let leaf_assignment t = (summary t).s_assignment
let leaf_slot n = n.tag
let n_leaf_slots t = (summary t).s_slots

let host_nodes t host =
  match Hashtbl.find (summary t).s_per_host host with
  | c -> c
  | exception Not_found -> 0

let sweep_up t ~at_leaf ~combine =
  let max_depth = ref 0 in
  let rec visit n =
    if n.depth > !max_depth then max_depth := n.depth;
    if is_leaf n then at_leaf n
    else begin
      let child_results =
        Array.fold_left
          (fun acc c ->
            match c with
            | Some child ->
              t.msg <- t.msg + 1;
              visit child :: acc
            | None -> acc)
          [] n.children
      in
      combine n (List.rev child_results)
    end
  in
  let result = visit t.root in
  t.last_rounds <- !max_depth + 1;
  result

let sweep_down t ~at_root ~split ~at_leaf =
  let max_depth = ref 0 in
  let rec visit n value =
    if n.depth > !max_depth then max_depth := n.depth;
    if is_leaf n then at_leaf n value
    else
      Array.iter
        (function
          | Some child ->
            t.msg <- t.msg + 1;
            visit child (split child value)
          | None -> ())
        n.children
  in
  visit t.root at_root;
  t.last_rounds <- !max_depth + 1
