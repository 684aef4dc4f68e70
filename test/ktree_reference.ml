(* The original pointer K-nary tree, retained as the reference for
   lib/ktree/ktree.ml.

   Production [Ktree] stores no nodes: it keeps the sorted VS ids and
   an O(#VS) summary, derives every node from index slices of the ids
   as it walks, and computes [refresh] and [repair] from the old and
   the new ids together.  This is the tree as the paper describes it:
   one heap record per node with an option array of children; [build]
   plants every node through [Dht.owner_of_key] (or a routed
   [Dht.lookup]) and tests it for leafness against its host's region,
   then [summarize] computes the summary in a preorder pass; [refresh]
   and [repair] are the pointer walks, visit for visit.

   Its contract is that every observable — regions, keys, depths,
   hosts, children, message counts, repair counts and messages, the
   values [repair] returns, the ordered kt/rehost and kt/replant events
   with their depths, leaf slots, the leaf assignment and per-host node
   counts — is EXACTLY what this implementation produces.  test_prop
   drives both on generated rings under churn and checks agreement.

   Unlike production upkeep, [refresh] and [repair] here always walk
   the whole tree: there is no ring-version shortcut to trust. *)

module Id = P2plb_idspace.Id
module Region = P2plb_idspace.Region
module Dht = P2plb_chord.Dht

type node = {
  region : Region.t;
  key : Id.t;
  depth : int;
  mutable host : Id.t;
  children : node option array;
  mutable tag : int;
}

type t = {
  k : int;
  root : node;
  mutable msg : int;
  mutable repaired : int;
  mutable repair_msg : int;
  (* kt/rehost and kt/replant events with their depths, newest first *)
  mutable events : (string * int) list;
  mutable n_nodes : int;
  mutable depth : int;
  mutable n_leaves : int;
  (* host -> deepest-first leaf planted in it *)
  assignment : (Id.t, node) Hashtbl.t;
  (* host -> number of KT nodes planted in it *)
  per_host : (Id.t, int) Hashtbl.t;
  mutable n_slots : int;
}

let is_leaf n = Array.for_all Option.is_none n.children
let events t = List.rev t.events
let event t name (n : node) = t.events <- (name, n.depth) :: t.events

let covered_by dht host n =
  match Dht.vs_of_id dht host with
  | None -> false
  | Some v -> Region.covers ~outer:(Dht.region_of_vs dht v) ~inner:n.region

let covered_by_host dht n = covered_by dht n.host n

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
  if not (covered_by_host dht n) then
    Array.iteri
      (fun i part ->
        if (not (Region.is_empty part)) && n.children.(i) = None then begin
          let child =
            plant ~route_messages t dht ~from:n.host part (n.depth + 1)
          in
          t.msg <- t.msg + 1;
          n.children.(i) <- Some child;
          grow ~route_messages t dht child
        end
        else
          match n.children.(i) with
          | Some child -> grow ~route_messages t dht child
          | None -> ())
      (Region.split n.region t.k)

let rec iter_nodes f n =
  f n;
  Array.iter (function Some c -> iter_nodes f c | None -> ()) n.children

(* The whole-tree figures, recomputed from scratch in preorder. *)
let summarize t =
  t.n_nodes <- 0;
  t.depth <- 0;
  t.n_leaves <- 0;
  t.n_slots <- 0;
  Hashtbl.reset t.assignment;
  Hashtbl.reset t.per_host;
  iter_nodes
    (fun n ->
      n.tag <- -1;
      t.n_nodes <- t.n_nodes + 1;
      t.depth <- Int.max t.depth n.depth;
      Hashtbl.replace t.per_host n.host
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.per_host n.host));
      if is_leaf n then begin
        (match Hashtbl.find_opt t.assignment n.host with
        | Some existing when existing.depth >= n.depth -> ()
        | existing ->
          Option.iter (fun e -> e.tag <- -1) existing;
          n.tag <- t.n_leaves;
          Hashtbl.replace t.assignment n.host n);
        t.n_leaves <- t.n_leaves + 1
      end)
    t.root;
  (* Winners renumbered 0 .. n_slots - 1 in preorder. *)
  iter_nodes
    (fun n ->
      if n.tag >= 0 then begin
        n.tag <- t.n_slots;
        t.n_slots <- t.n_slots + 1
      end)
    t.root

let build ?(route_messages = false) ~k dht =
  let root_key = Region.center Region.whole in
  let root =
    {
      region = Region.whole;
      key = root_key;
      depth = 0;
      host = (Dht.owner_of_key dht root_key).Dht.vs_id;
      children = Array.make k None;
      tag = -1;
    }
  in
  let t =
    {
      k;
      root;
      msg = 1;
      repaired = 0;
      repair_msg = 0;
      events = [];
      n_nodes = 0;
      depth = 0;
      n_leaves = 0;
      assignment = Hashtbl.create 256;
      per_host = Hashtbl.create 256;
      n_slots = 0;
    }
  in
  grow ~route_messages t dht root;
  summarize t;
  t

let host_nodes t host =
  Option.value ~default:0 (Hashtbl.find_opt t.per_host host)

(* Drop every child of [n], charging [charge] once per child. *)
let prune n ~charge =
  Array.iteri
    (fun i c ->
      match c with
      | Some _ ->
        charge ();
        n.children.(i) <- None
      | None -> ())
    n.children

let refresh ?(route_messages = false) t dht =
  (* One level of [grow]: plant the missing children of [n] without
     descending; [visit] recurses. *)
  let grow_level n =
    Array.iteri
      (fun i part ->
        if (not (Region.is_empty part)) && n.children.(i) = None then begin
          let child =
            plant ~route_messages t dht ~from:n.host part (n.depth + 1)
          in
          t.msg <- t.msg + 1;
          n.children.(i) <- Some child
        end)
      (Region.split n.region t.k)
  in
  let rec visit n =
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
      t.msg <- t.msg + t.k + 1;
      event t "kt/rehost" n
    end;
    if covered_by_host dht n then
      prune n ~charge:(fun () -> t.msg <- t.msg + 1)
    else begin
      grow_level n;
      Array.iter
        (function
          | Some c ->
            t.msg <- t.msg + 1;
            visit c
          | None -> ())
        n.children
    end
  in
  visit t.root

let broken dht n =
  match Dht.vs_of_id dht n.host with
  | None -> true
  | Some _ -> (Dht.owner_of_key dht n.key).Dht.vs_id <> n.host

let repair ?(route_messages = false) t dht =
  let repaired_now = ref 0 in
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
    t.msg <- t.msg + t.k + 1;
    t.repair_msg <- t.repair_msg + t.k + 1;
    t.repaired <- t.repaired + 1;
    event t "kt/replant" n;
    incr repaired_now
  in
  let rec visit ~from n =
    if broken dht n then replant ~from n;
    if covered_by_host dht n then
      prune n ~charge:(fun () ->
          t.msg <- t.msg + 1;
          t.repair_msg <- t.repair_msg + 1)
    else
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
            visit ~from:n.host child
          end
          else
            match n.children.(i) with
            | Some child -> visit ~from:n.host child
            | None -> ())
        (Region.split n.region t.k)
  in
  visit ~from:t.root.host t.root;
  !repaired_now

(* The bottom-up sweep as a recursive postorder: [at_leaf] at a leaf;
   at an internal node, [merge] folded left over its children's
   results, each merged as it returns, then [at_node]. *)
let rec sweep_up n ~at_leaf ~empty ~merge ~at_node =
  if is_leaf n then at_leaf n
  else
    at_node n
      (Array.fold_left
         (fun acc c ->
           match c with
           | Some c -> merge acc (sweep_up c ~at_leaf ~empty ~merge ~at_node)
           | None -> acc)
         empty n.children)

(* The top-down sweep in preorder: [split] on each edge into a child,
   [at_leaf] at every leaf. *)
let rec sweep_down n value ~split ~at_leaf =
  if is_leaf n then at_leaf n value
  else
    Array.iter
      (function
        | Some c -> sweep_down c (split c value) ~split ~at_leaf
        | None -> ())
      n.children
