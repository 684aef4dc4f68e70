(* The original DHT-driven K-nary tree builder, retained as the
   reference for lib/ktree/ktree.ml's [build].

   Production [build] recurses over index ranges of the sorted VS ids
   and fills the whole-tree summary in the same pass.  This is the
   builder it replaced: every node is planted through
   [Dht.owner_of_key] (or a routed [Dht.lookup]) and tested for leafness
   against its host's region, then a second preorder pass computes the
   summary.  Its contract is that every observable — regions, keys,
   depths, hosts, children, message count, leaf slots, the leaf
   assignment and per-host node counts — is EXACTLY what this
   implementation produces.  test_prop drives both on generated rings
   and checks agreement. *)

module Id = P2plb_idspace.Id
module Region = P2plb_idspace.Region
module Dht = P2plb_chord.Dht

type node = {
  region : Region.t;
  key : Id.t;
  depth : int;
  host : Id.t;
  children : node option array;
  mutable tag : int;
}

type t = {
  k : int;
  root : node;
  mutable msg : int;
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

let rec grow ~route_messages t dht n =
  if not (covered_by_host dht n) then
    Array.iteri
      (fun i part ->
        if not (Region.is_empty part) then begin
          let child =
            plant ~route_messages t dht ~from:n.host part (n.depth + 1)
          in
          t.msg <- t.msg + 1;
          n.children.(i) <- Some child;
          grow ~route_messages t dht child
        end)
      (Region.split n.region t.k)

let rec iter_nodes f n =
  f n;
  Array.iter (function Some c -> iter_nodes f c | None -> ()) n.children

let summarize t =
  iter_nodes
    (fun n ->
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
