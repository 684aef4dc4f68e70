module Id = P2plb_idspace.Id
module Region = P2plb_idspace.Region
module Dht = P2plb_chord.Dht
module Ktree = P2plb_ktree.Ktree
module Prng = P2plb_prng.Prng

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let build_dht ~seed ~nodes ~vs =
  let dht : Dht.t = Dht.create ~seed in
  for i = 0 to nodes - 1 do
    ignore (Dht.join dht ~capacity:1.0 ~underlay:i ~n_vs:vs)
  done;
  dht

let every_slot tree = Array.init (Ktree.n_leaf_slots tree) Fun.id

let expect_consistent tree dht =
  match Ktree.check_consistent tree dht with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_build_consistent () =
  let dht = build_dht ~seed:1 ~nodes:30 ~vs:4 in
  let tree = Ktree.build ~k:2 dht in
  expect_consistent tree dht

let test_build_k8_consistent () =
  let dht = build_dht ~seed:2 ~nodes:30 ~vs:4 in
  let tree = Ktree.build ~k:8 dht in
  expect_consistent tree dht;
  check Alcotest.int "k" 8 (Ktree.k tree)

let test_single_vs_is_root_leaf () =
  let dht = build_dht ~seed:3 ~nodes:1 ~vs:1 in
  let tree = Ktree.build ~k:2 dht in
  check Alcotest.bool "root is leaf" true (Ktree.is_leaf tree (Ktree.root tree));
  check Alcotest.int "one node" 1 (Ktree.n_nodes tree);
  expect_consistent tree dht

let test_root_region_whole () =
  let dht = build_dht ~seed:4 ~nodes:10 ~vs:2 in
  let tree = Ktree.build ~k:2 dht in
  check Alcotest.bool "root owns everything" true
    (Region.is_whole (Ktree.region tree (Ktree.root tree)))

let test_every_vs_hosts_a_leaf () =
  (* The §3.1 guarantee; check_consistent verifies it, but assert the
     leaf_assignment table covers every VS too. *)
  let dht = build_dht ~seed:5 ~nodes:25 ~vs:3 in
  let tree = Ktree.build ~k:2 dht in
  let table = Ktree.leaf_assignment tree in
  Dht.fold_vs dht ~init:() ~f:(fun () v ->
      match Hashtbl.find_opt table v.Dht.vs_id with
      | Some leaf ->
        check Alcotest.int "designated leaf hosted by the VS" v.Dht.vs_id
          (Ktree.host tree leaf)
      | None -> Alcotest.fail "VS without designated leaf")

let test_leaves_partition_ring () =
  let dht = build_dht ~seed:6 ~nodes:20 ~vs:3 in
  let tree = Ktree.build ~k:2 dht in
  let leaves = Ktree.leaves tree in
  let total =
    List.fold_left
      (fun acc l -> acc + Region.len (Ktree.region tree l))
      0 leaves
  in
  check Alcotest.int "leaf regions partition the ring" Id.space_size total

(* Splits from the whole ring until [x] is the last point of the
   region holding it: the leaf test refines every region that holds an
   id anywhere but on its last point, so each id forces a chain of
   internal KT nodes this long, and nothing else does. *)
let splits_to_last ~k x =
  let rec go r d =
    if Region.last r = x then d
    else
      let parts = Region.split r k in
      let i = ref 0 in
      while not (Region.contains parts.(!i) x) do
        incr i
      done;
      go parts.(!i) (d + 1)
  in
  go Region.whole 0

let exact_depth ~k dht =
  if Dht.n_vs dht = 1 then 0
  else
    Dht.fold_vs dht ~init:0 ~f:(fun d v ->
        Int.max d (splits_to_last ~k v.Dht.vs_id))

let test_depth_exact () =
  (* 180 generated rings, a single VS among them (seed 0). *)
  for seed = 0 to 59 do
    let nodes = 1 + (seed * 37 mod 64) and vs = 1 + (seed mod 8) in
    let dht = build_dht ~seed ~nodes ~vs in
    List.iter
      (fun k ->
        check Alcotest.int
          (Printf.sprintf "seed %d k=%d depth" seed k)
          (exact_depth ~k dht)
          (Ktree.depth (Ktree.build ~k dht)))
      [ 2; 3; 8 ]
  done

(* Preorder (region, key, depth, host, child slots): the tree's
   structure as comparable data. *)
let shape tree =
  List.rev
    (Ktree.fold_nodes tree ~init:[] ~f:(fun acc n ->
         ( Region.start (Ktree.region tree n),
           Region.len (Ktree.region tree n),
           Ktree.key tree n,
           Ktree.node_depth tree n,
           Ktree.host tree n,
           Array.map Option.is_some (Ktree.children tree n) )
         :: acc))

let test_routed_build_matches () =
  (* The routed build plants the same tree and charges each child's
     Chord lookup exactly as the DHT-driven reference builder does. *)
  List.iter
    (fun k ->
      let dht = build_dht ~seed:17 ~nodes:40 ~vs:3 in
      let plain = Ktree.build ~k dht in
      let counters () = (Dht.lookups_performed dht, Dht.hops_used dht) in
      let l0, h0 = counters () in
      let reference = Ktree_reference.build ~route_messages:true ~k dht in
      let l1, h1 = counters () in
      let routed = Ktree.build ~route_messages:true ~k dht in
      let l2, h2 = counters () in
      let label s = Printf.sprintf "k=%d %s" k s in
      check Alcotest.bool (label "same tree") true (shape routed = shape plain);
      check Alcotest.int (label "depth") (Ktree.depth plain)
        (Ktree.depth routed);
      check Alcotest.int (label "messages") reference.Ktree_reference.msg
        (Ktree.messages routed);
      check Alcotest.bool (label "hops charged") true
        (Ktree.messages routed > Ktree.messages plain);
      check Alcotest.int (label "lookups") (l1 - l0) (l2 - l1);
      check Alcotest.int (label "one lookup per child")
        (Ktree.n_nodes plain - 1) (l2 - l1);
      check Alcotest.int (label "hops") (h1 - h0) (h2 - h1);
      expect_consistent routed dht)
    [ 2; 8 ]

(* The sweep visits each assigned leaf once, in slot order, at the
   depth of the VS's designated leaf. *)
let test_sweep_up_counts_leaves () =
  let dht = build_dht ~seed:8 ~nodes:15 ~vs:3 in
  let tree = Ktree.build ~k:2 dht in
  let depth_of_slot = Array.make (Ktree.n_leaf_slots tree) (-1) in
  (* p2plint: allow-unordered — each entry writes its own slot *)
  Hashtbl.iter
    (fun _ leaf ->
      depth_of_slot.(Ktree.leaf_slot tree leaf) <- Ktree.node_depth tree leaf)
    (Ktree.leaf_assignment tree);
  let visited = ref [] in
  let total =
    Ktree.sweep tree (every_slot tree) ~empty:0
      ~at_leaf:(fun ~slot ~depth ->
        visited := (slot, depth) :: !visited;
        1)
      ~merge:( + )
      ~lift:(fun ~hi:_ ~lo:_ n -> n)
  in
  check Alcotest.int "one value per slot" (Ktree.n_leaf_slots tree) total;
  check
    Alcotest.(list (pair int int))
    "slots in order, at their leaves' depths"
    (List.init (Ktree.n_leaf_slots tree) (fun s -> (s, depth_of_slot.(s))))
    (List.rev !visited);
  check Alcotest.int "rounds" (Ktree.depth tree + 1)
    (Ktree.rounds_last_sweep tree)

let test_sweep_down_reaches_leaves () =
  let dht = build_dht ~seed:9 ~nodes:15 ~vs:3 in
  let tree = Ktree.build ~k:2 dht in
  Ktree.reset_counters tree;
  Ktree.broadcast tree;
  check Alcotest.int "one message per edge" (Ktree.n_nodes tree - 1)
    (Ktree.messages tree);
  check Alcotest.int "rounds" (Ktree.depth tree + 1)
    (Ktree.rounds_last_sweep tree)

let test_sweep_messages_counted () =
  let dht = build_dht ~seed:10 ~nodes:10 ~vs:2 in
  let tree = Ktree.build ~k:2 dht in
  Ktree.reset_counters tree;
  Ktree.sweep tree (every_slot tree) ~empty:()
    ~at_leaf:(fun ~slot:_ ~depth:_ -> ())
    ~merge:(fun () () -> ())
    ~lift:(fun ~hi:_ ~lo:_ () -> ());
  (* one message per edge = n_nodes - 1, whatever the sweep visits *)
  check Alcotest.int "edges traversed" (Ktree.n_nodes tree - 1)
    (Ktree.messages tree);
  check Alcotest.int "rounds" (Ktree.depth tree + 1)
    (Ktree.rounds_last_sweep tree);
  Ktree.broadcast tree;
  check Alcotest.int "both directions" (2 * (Ktree.n_nodes tree - 1))
    (Ktree.messages tree)

let test_refresh_idempotent_on_stable_ring () =
  let dht = build_dht ~seed:11 ~nodes:20 ~vs:3 in
  let tree = Ktree.build ~k:2 dht in
  let nodes_before = Ktree.n_nodes tree in
  Ktree.refresh tree dht;
  check Alcotest.int "no structural change" nodes_before (Ktree.n_nodes tree);
  expect_consistent tree dht

let test_refresh_repairs_after_crash () =
  let dht = build_dht ~seed:12 ~nodes:20 ~vs:3 in
  let tree = Ktree.build ~k:2 dht in
  Dht.crash dht 5;
  Dht.crash dht 11;
  Ktree.refresh tree dht;
  expect_consistent tree dht

let test_refresh_grows_after_join () =
  let dht = build_dht ~seed:13 ~nodes:10 ~vs:2 in
  let tree = Ktree.build ~k:2 dht in
  for i = 0 to 4 do
    ignore (Dht.join dht ~capacity:1.0 ~underlay:(100 + i) ~n_vs:3)
  done;
  Ktree.refresh tree dht;
  expect_consistent tree dht

let test_refresh_survives_heavy_churn () =
  let dht = build_dht ~seed:14 ~nodes:30 ~vs:3 in
  let tree = Ktree.build ~k:2 dht in
  let rng = Prng.create ~seed:77 in
  for _ = 1 to 10 do
    if Prng.bool rng && Dht.n_nodes dht > 2 then begin
      let alive = Array.of_list (Dht.alive_nodes dht) in
      Dht.crash dht (Prng.choose rng alive).Dht.node_id
    end
    else ignore (Dht.join dht ~capacity:1.0 ~underlay:0 ~n_vs:2);
    Ktree.refresh tree dht
  done;
  expect_consistent tree dht

let test_refresh_after_vs_transfer () =
  (* Lazy migration: a transfer does not change which VS hosts a KT
     node, so the tree stays consistent after refresh. *)
  let dht = build_dht ~seed:15 ~nodes:10 ~vs:3 in
  let tree = Ktree.build ~k:2 dht in
  let v = List.hd (Dht.node dht 0).Dht.vss in
  Dht.transfer_vs dht v ~to_node:5;
  Ktree.refresh tree dht;
  expect_consistent tree dht

let test_fold_nodes_count () =
  let dht = build_dht ~seed:16 ~nodes:12 ~vs:2 in
  let tree = Ktree.build ~k:2 dht in
  let count = Ktree.fold_nodes tree ~init:0 ~f:(fun acc _ -> acc + 1) in
  check Alcotest.int "fold visits all" (Ktree.n_nodes tree) count

(* ---- sweep callback order ---------------------------------------------- *)

(* What a sweep shows its callbacks: each assigned leaf with its depth
   and slot, each internal node's level, and each [merge] with its
   operands.  A value is the slots of the assigned leaves below, so
   merge operands name the subtrees merged, and an internal node on no
   assigned leaf's path holds []. *)
type call =
  | Leaf of int * int
  | Node of int
  | Merge of int list * int list

(* The skeleton sweep, with each lift written out a level at a time;
   a lift over an empty range or of [] is recorded as a failure. *)
let record_skeleton tree =
  let log = ref [] and ok = ref true in
  let push c = log := c :: !log in
  let v =
    Ktree.sweep tree (every_slot tree) ~empty:[]
      ~at_leaf:(fun ~slot ~depth ->
        push (Leaf (depth, slot));
        [ slot ])
      ~merge:(fun a b ->
        push (Merge (a, b));
        a @ b)
      ~lift:(fun ~hi ~lo v ->
        if hi > lo || v = [] then ok := false;
        for d = lo downto hi do
          push (Node d)
        done;
        v)
  in
  (!ok, List.rev !log, v)

(* The reference's full postorder restricted to the skeleton: assigned
   leaves, merges of two non-empty values (at forks) and internal
   nodes holding an assigned leaf. *)
let record_reference (r : Ktree_reference.t) =
  let log = ref [] in
  let push c = log := c :: !log in
  let v =
    Ktree_reference.sweep_up r.Ktree_reference.root
      ~at_leaf:(fun n ->
        let slot = n.Ktree_reference.tag in
        if slot < 0 then []
        else begin
          push (Leaf (n.Ktree_reference.depth, slot));
          [ slot ]
        end)
      ~empty:[]
      ~merge:(fun a b ->
        if a <> [] && b <> [] then push (Merge (a, b));
        a @ b)
      ~at_node:(fun n v ->
        if v <> [] then push (Node n.Ktree_reference.depth);
        v)
  in
  (List.rev !log, v)

(* The full walks left, [fold_nodes] and [leaves], in the reference's
   preorder. *)
let preorder_matches_reference tree (r : Ktree_reference.t) =
  let view n =
    (Ktree.node_depth tree n, Region.start (Ktree.region tree n),
     Ktree.leaf_slot tree n)
  and rview (n : Ktree_reference.node) =
    (n.Ktree_reference.depth, Region.start n.Ktree_reference.region,
     n.Ktree_reference.tag)
  in
  let rnodes = ref [] in
  Ktree_reference.iter_nodes (fun n -> rnodes := n :: !rnodes)
    r.Ktree_reference.root;
  let rnodes = List.rev !rnodes in
  List.rev (Ktree.fold_nodes tree ~init:[] ~f:(fun acc n -> view n :: acc))
  = List.map rview rnodes
  && List.map view (Ktree.leaves tree)
     = List.map rview (List.filter Ktree_reference.is_leaf rnodes)

(* On one ring, the skeleton sweep records the reference's restricted
   postorder and root value, and charges the full sweep's rounds. *)
let sweeps_match_reference ~k dht =
  let tree = Ktree.build ~k dht and r = Ktree_reference.build ~k dht in
  let ok, log, v = record_skeleton tree in
  let rlog, rv = record_reference r in
  ok && log = rlog && v = rv
  && preorder_matches_reference tree r
  && Ktree.rounds_last_sweep tree = Ktree.depth tree + 1

(* The order the sweep promises is the pointer tree's recursive
   postorder restricted to the skeleton: it fixes VSA's notify and
   fault draws and LBI's float summation order.  Each case also sweeps
   rings of 1-3 VSs at K = 2, 3 and 8, where the root is a leaf (and
   nothing is lifted) or chains start at depth 1. *)
let prop_sweep_order =
  QCheck.Test.make ~name:"sweep callbacks in reference order" ~count:30
    QCheck.(quad small_int (int_range 1 60) (int_range 1 6) (int_range 0 2))
    (fun (seed, nodes, vs, k_sel) ->
      sweeps_match_reference ~k:[| 2; 3; 8 |].(k_sel)
        (build_dht ~seed ~nodes ~vs)
      && List.for_all
           (fun (k, n_vs) ->
             sweeps_match_reference ~k (build_dht ~seed ~nodes:1 ~vs:n_vs)
             && sweeps_match_reference ~k (build_dht ~seed ~nodes:n_vs ~vs:1))
           [ (2, 1); (2, 2); (2, 3); (3, 1); (3, 2); (3, 3); (8, 1); (8, 2); (8, 3) ])

(* ---- storage under churn ----------------------------------------------- *)

let test_storage_bounded_under_churn () =
  (* A long-lived tree through 500 churn + refresh steps stays within
     twice the size of a fresh build on the final ring, and equals that
     build. *)
  let dht = build_dht ~seed:18 ~nodes:40 ~vs:3 in
  let tree = Ktree.build ~k:2 dht in
  let rng = Prng.create ~seed:78 in
  for step = 1 to 500 do
    let alive = Dht.n_nodes dht in
    if alive > 20 && (alive > 60 || Prng.bool rng) then begin
      let n = Prng.choose rng (Array.of_list (Dht.alive_nodes dht)) in
      Dht.crash dht n.Dht.node_id
    end
    else ignore (Dht.join dht ~capacity:1.0 ~underlay:step ~n_vs:3);
    Ktree.refresh tree dht
  done;
  expect_consistent tree dht;
  let fresh = Ktree.build ~k:2 dht in
  check Alcotest.bool "same tree as a fresh build" true
    (shape tree = shape fresh);
  (* Both summaries filled, so both carry the same tables. *)
  check Alcotest.int "nodes" (Ktree.n_nodes fresh) (Ktree.n_nodes tree);
  let words = Obj.reachable_words (Obj.repr tree)
  and fresh_words = Obj.reachable_words (Obj.repr fresh) in
  if words > 2 * fresh_words then
    Alcotest.failf "long-lived tree holds %d words, a fresh build %d" words
      fresh_words

let test_storage_linear_in_vs () =
  (* A tree stores its ring's ids and an O(#VS) summary, not its
     nodes: 688,911 of them on this 20,480-VS ring, held in 61,494
     words (3.0 per VS; three int arrays over the ring). *)
  let dht = build_dht ~seed:19 ~nodes:4096 ~vs:5 in
  let tree = Ktree.build ~k:2 dht in
  let words = Obj.reachable_words (Obj.repr tree) and n_vs = Dht.n_vs dht in
  if words > 4 * n_vs then
    Alcotest.failf "tree over %d VSs holds %d words (bound %d)" n_vs words
      (4 * n_vs)

(* A tree that missed the ring's churn is caught: after a crash its
   nodes hosted by the dead VSs are planted in missing ones, after a
   join the new VSs host no leaf. *)
let test_stale_tree_inconsistent () =
  List.iter
    (fun k ->
      let expect_error what tree dht =
        match Ktree.check_consistent tree dht with
        | Ok () -> Alcotest.failf "k=%d: stale tree after %s passed" k what
        | Error _ -> ()
      in
      let dht = build_dht ~seed:20 ~nodes:20 ~vs:3 in
      let tree = Ktree.build ~k dht in
      Dht.crash dht 7;
      expect_error "a crash" tree dht;
      let dht = build_dht ~seed:21 ~nodes:20 ~vs:3 in
      let tree = Ktree.build ~k dht in
      ignore (Dht.join dht ~capacity:1.0 ~underlay:99 ~n_vs:3);
      expect_error "a join" tree dht;
      Ktree.refresh tree dht;
      expect_consistent tree dht)
    [ 2; 8 ]

let prop_tree_consistent_for_any_ring =
  QCheck.Test.make ~name:"tree consistent on random rings" ~count:25
    QCheck.(triple small_int (int_range 1 25) (int_range 1 5))
    (fun (seed, nodes, vs) ->
      let dht = build_dht ~seed ~nodes ~vs in
      let tree = Ktree.build ~k:2 dht in
      Result.is_ok (Ktree.check_consistent tree dht))

let prop_k8_consistent =
  QCheck.Test.make ~name:"k=8 tree consistent on random rings" ~count:15
    QCheck.(pair small_int (int_range 1 20))
    (fun (seed, nodes) ->
      let dht = build_dht ~seed ~nodes ~vs:3 in
      let tree = Ktree.build ~k:8 dht in
      Result.is_ok (Ktree.check_consistent tree dht))

let () =
  Alcotest.run "ktree"
    [
      ( "construction",
        [
          Alcotest.test_case "consistent k=2" `Quick test_build_consistent;
          Alcotest.test_case "consistent k=8" `Quick test_build_k8_consistent;
          Alcotest.test_case "single vs" `Quick test_single_vs_is_root_leaf;
          Alcotest.test_case "root region" `Quick test_root_region_whole;
          Alcotest.test_case "leaf per VS" `Quick test_every_vs_hosts_a_leaf;
          Alcotest.test_case "leaves partition" `Quick
            test_leaves_partition_ring;
          Alcotest.test_case "depth exact" `Quick test_depth_exact;
          Alcotest.test_case "routed = unrouted" `Quick
            test_routed_build_matches;
          Alcotest.test_case "stale tree fails the check" `Quick
            test_stale_tree_inconsistent;
        ] );
      ( "sweeps",
        [
          Alcotest.test_case "sweep_up" `Quick test_sweep_up_counts_leaves;
          Alcotest.test_case "sweep_down" `Quick test_sweep_down_reaches_leaves;
          Alcotest.test_case "messages" `Quick test_sweep_messages_counted;
        ] );
      ( "self-repair",
        [
          Alcotest.test_case "refresh idempotent" `Quick
            test_refresh_idempotent_on_stable_ring;
          Alcotest.test_case "repairs crash" `Quick
            test_refresh_repairs_after_crash;
          Alcotest.test_case "grows after join" `Quick
            test_refresh_grows_after_join;
          Alcotest.test_case "heavy churn" `Quick
            test_refresh_survives_heavy_churn;
          Alcotest.test_case "after transfer" `Quick
            test_refresh_after_vs_transfer;
          Alcotest.test_case "fold_nodes" `Quick test_fold_nodes_count;
          Alcotest.test_case "storage bounded under churn" `Quick
            test_storage_bounded_under_churn;
          Alcotest.test_case "storage linear in #VS" `Quick
            test_storage_linear_in_vs;
        ] );
      ( "properties",
        [
          qtest prop_tree_consistent_for_any_ring;
          qtest prop_k8_consistent;
          qtest prop_sweep_order;
        ]
      );
    ]
