module Id = P2plb_idspace.Id
module Region = P2plb_idspace.Region
module Dht = P2plb_chord.Dht
module Prng = P2plb_prng.Prng

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let build_dht ~seed ~nodes ~vs =
  let dht : unit Dht.t = Dht.create ~seed in
  for i = 0 to nodes - 1 do
    ignore (Dht.join dht ~capacity:(float_of_int (1 + (i mod 3))) ~underlay:i ~n_vs:vs)
  done;
  dht

(* ---- membership -------------------------------------------------------- *)

let test_join_counts () =
  let dht = build_dht ~seed:1 ~nodes:10 ~vs:5 in
  check Alcotest.int "nodes" 10 (Dht.n_nodes dht);
  check Alcotest.int "vss" 50 (Dht.n_vs dht);
  Dht.fold_nodes dht ~init:() ~f:(fun () n ->
      check Alcotest.int "5 per node" 5 (List.length n.Dht.vss))

let test_regions_partition_ring () =
  let dht = build_dht ~seed:2 ~nodes:20 ~vs:3 in
  let total =
    Dht.fold_vs dht ~init:0 ~f:(fun acc v ->
        acc + Region.len (Dht.region_of_vs dht v))
  in
  check Alcotest.int "regions cover ring exactly" Id.space_size total

let test_owner_matches_region () =
  let dht = build_dht ~seed:3 ~nodes:10 ~vs:4 in
  let rng = Prng.create ~seed:99 in
  for _ = 1 to 200 do
    let key = Prng.int rng Id.space_size in
    let owner = Dht.owner_of_key dht key in
    check Alcotest.bool "key in owner region" true
      (Region.contains (Dht.region_of_vs dht owner) key)
  done

let test_load_conserved_by_join () =
  let dht = build_dht ~seed:4 ~nodes:10 ~vs:3 in
  Dht.fold_vs dht ~init:() ~f:(fun () v -> Dht.set_vs_load dht v 1.0);
  let before = Dht.total_load dht in
  ignore (Dht.join dht ~capacity:1.0 ~underlay:0 ~n_vs:5);
  let after = Dht.total_load dht in
  check Alcotest.bool "join conserves load" true (abs_float (before -. after) < 1e-9)

let test_load_conserved_by_leave () =
  let dht = build_dht ~seed:5 ~nodes:10 ~vs:3 in
  Dht.fold_vs dht ~init:() ~f:(fun () v -> Dht.set_vs_load dht v 2.0);
  let before = Dht.total_load dht in
  Dht.crash dht 3;
  check Alcotest.int "node count drops" 9 (Dht.n_nodes dht);
  check Alcotest.int "vs count drops" 27 (Dht.n_vs dht);
  check Alcotest.bool "leave conserves load" true
    (abs_float (before -. Dht.total_load dht) < 1e-9);
  check Alcotest.bool "dead" false (Dht.is_alive dht 3)

let test_regions_partition_after_churn () =
  let dht = build_dht ~seed:6 ~nodes:15 ~vs:3 in
  Dht.crash dht 2;
  Dht.crash dht 7;
  ignore (Dht.join dht ~capacity:5.0 ~underlay:1 ~n_vs:4);
  let total =
    Dht.fold_vs dht ~init:0 ~f:(fun acc v ->
        acc + Region.len (Dht.region_of_vs dht v))
  in
  check Alcotest.int "still a partition" Id.space_size total

(* successor(k) and the predecessor both wrap: keys past the largest id
   belong to the smallest VS, whose region starts just after the
   largest id. *)
let test_ring_wraps () =
  let dht = build_dht ~seed:17 ~nodes:4 ~vs:2 in
  let ids = Dht.vs_ids dht in
  let n = Array.length ids in
  let owner k = (Dht.owner_of_key dht k).Dht.vs_id in
  let region i = Dht.region_of_vs dht (Option.get (Dht.vs_of_id dht ids.(i))) in
  check Alcotest.int "exact" ids.(0) (owner ids.(0));
  check Alcotest.int "between" ids.(1) (owner (Id.add ids.(0) 1));
  check Alcotest.int "wraps" ids.(0) (owner (Id.add ids.(n - 1) 1));
  check Alcotest.int "pred" (Id.add ids.(0) 1) (Region.start (region 1));
  check Alcotest.int "pred wraps" (Id.add ids.(n - 1) 1)
    (Region.start (region 0));
  check Alcotest.int "wrapping region length"
    (Id.distance_cw ids.(n - 1) ids.(0))
    (Region.len (region 0))

let test_vs_ids_follow_ring () =
  (* The ring's ids in fold_vs order, as a fresh copy each call, before
     and after churn. *)
  let dht = build_dht ~seed:6 ~nodes:15 ~vs:3 in
  let ring () =
    List.rev (Dht.fold_vs dht ~init:[] ~f:(fun acc v -> v.Dht.vs_id :: acc))
  in
  let ids = Dht.vs_ids dht in
  check Alcotest.(list int) "joined ring" (ring ()) (Array.to_list ids);
  ids.(0) <- -1;
  check Alcotest.(list int) "a fresh copy" (ring ())
    (Array.to_list (Dht.vs_ids dht));
  Dht.crash dht 7;
  ignore (Dht.join dht ~capacity:5.0 ~underlay:1 ~n_vs:4);
  check Alcotest.(list int) "after churn" (ring ())
    (Array.to_list (Dht.vs_ids dht))

(* ---- transfer / removal ------------------------------------------------ *)

let test_transfer_vs () =
  let dht = build_dht ~seed:7 ~nodes:5 ~vs:2 in
  let n0 = Dht.node dht 0 in
  let v = List.hd n0.Dht.vss in
  Dht.set_vs_load dht v 7.5;
  let region_before = Dht.region_of_vs dht v in
  Dht.transfer_vs dht v ~to_node:3;
  check Alcotest.int "owner changed" 3 v.Dht.owner;
  check Alcotest.int "source sheds it" 1 (List.length (Dht.node dht 0).Dht.vss);
  check Alcotest.int "target gains it" 3 (List.length (Dht.node dht 3).Dht.vss);
  check Alcotest.bool "load moves with it" true
    (abs_float (v.Dht.load -. 7.5) < 1e-9);
  check Alcotest.bool "region unchanged" true
    (Region.equal region_before (Dht.region_of_vs dht v))

let test_transfer_to_dead_fails () =
  let dht = build_dht ~seed:8 ~nodes:5 ~vs:2 in
  let v = List.hd (Dht.node dht 0).Dht.vss in
  Dht.crash dht 4;
  Alcotest.check_raises "dead target"
    (Invalid_argument "Dht.transfer_vs: dead target") (fun () ->
      Dht.transfer_vs dht v ~to_node:4)

(* A handle whose VS left the ring (its owner departed, or it was
   removed) is rejected. *)
let test_transfer_departed_vs_fails () =
  let dht = build_dht ~seed:8 ~nodes:5 ~vs:2 in
  let gone = List.hd (Dht.node dht 0).Dht.vss in
  let removed = List.hd (Dht.node dht 1).Dht.vss in
  Dht.crash dht 0;
  Dht.remove_vs dht removed;
  List.iter
    (fun v ->
      Alcotest.check_raises "no such VS"
        (Invalid_argument "Dht.transfer_vs: no such VS") (fun () ->
          Dht.transfer_vs dht v ~to_node:2))
    [ gone; removed ]

(* [crash] and [remove_vs] mark exactly the records they take
   off the ring, and neither handle operation accepts one of them. *)
let test_departed_vs_off_ring () =
  let dht = build_dht ~seed:8 ~nodes:6 ~vs:3 in
  let all = Dht.fold_vs dht ~init:[] ~f:(fun acc v -> v :: acc) in
  let removed_vs = List.hd (Dht.node dht 2).Dht.vss in
  let removed =
    (removed_vs :: (Dht.node dht 0).Dht.vss) @ (Dht.node dht 1).Dht.vss
  in
  Dht.crash dht 0;
  Dht.crash dht 1;
  Dht.remove_vs dht removed_vs;
  check Alcotest.int "ring size" 11 (Dht.n_vs dht);
  List.iter
    (fun v ->
      check Alcotest.bool "on_ring = not removed"
        (not (List.memq v removed))
        (Dht.on_ring v))
    all;
  Dht.fold_vs dht ~init:() ~f:(fun () v ->
      check Alcotest.bool "every ring record is on the ring" true
        (Dht.on_ring v));
  List.iter
    (fun v ->
      Alcotest.check_raises "transfer: no such VS"
        (Invalid_argument "Dht.transfer_vs: no such VS") (fun () ->
          Dht.transfer_vs dht v ~to_node:3);
      Alcotest.check_raises "remove: no such VS"
        (Invalid_argument "Dht.remove_vs: no such VS") (fun () ->
          Dht.remove_vs dht v))
    removed;
  check Alcotest.int "ring untouched by the refusals" 11 (Dht.n_vs dht)

let test_remove_vs_absorbs () =
  let dht = build_dht ~seed:9 ~nodes:5 ~vs:2 in
  Dht.fold_vs dht ~init:() ~f:(fun () v -> Dht.set_vs_load dht v 1.0);
  let before = Dht.total_load dht in
  let v = List.hd (Dht.node dht 2).Dht.vss in
  Dht.remove_vs dht v;
  check Alcotest.int "one fewer vs" 9 (Dht.n_vs dht);
  check Alcotest.bool "load conserved" true
    (abs_float (before -. Dht.total_load dht) < 1e-9)

(* A node hosting every VS cannot depart: the ring would empty.  The
   refusal comes before anything changes, so the node keeps all its
   VSs and stays alive. *)
let test_depart_refuses_to_empty_ring () =
  let dht = build_dht ~seed:10 ~nodes:2 ~vs:3 in
  List.iter
    (fun v -> Dht.transfer_vs dht v ~to_node:0)
    (Dht.node dht 1).Dht.vss;
  let version = Dht.ring_version dht in
  check Alcotest.bool "the host of every VS cannot depart" false
    (Dht.can_depart dht 0);
  check Alcotest.bool "an empty node can" true (Dht.can_depart dht 1);
  Alcotest.check_raises "refused"
    (Invalid_argument "Dht.crash: the node hosts every VS; the ring would empty")
    (fun () -> Dht.crash dht 0);
  check Alcotest.bool "still alive" true (Dht.is_alive dht 0);
  check Alcotest.int "keeps every VS" 6 (List.length (Dht.node dht 0).Dht.vss);
  check Alcotest.int "ring untouched" 6 (Dht.n_vs dht);
  check Alcotest.int "ring version untouched" version (Dht.ring_version dht);
  Dht.crash dht 1;
  check Alcotest.int "the empty node departs" 1 (Dht.n_nodes dht);
  check Alcotest.bool "a dead node cannot depart" false (Dht.can_depart dht 1)

let test_report_vs_fallback () =
  let dht = build_dht ~seed:10 ~nodes:3 ~vs:2 in
  let rng = Prng.create ~seed:1 in
  let n = Dht.node dht 1 in
  (* shed everything from node 1 *)
  List.iter
    (fun v -> Dht.transfer_vs dht v ~to_node:0)
    n.Dht.vss;
  check Alcotest.int "empty node" 0 (List.length (Dht.node dht 1).Dht.vss);
  (* report_vs still works *)
  let v = Dht.report_vs dht rng (Dht.node dht 1) in
  check Alcotest.bool "some vs" true (Dht.vs_of_id dht v.Dht.vs_id <> None)

(* ---- routing & storage -------------------------------------------------- *)

let test_lookup_finds_owner () =
  let dht = build_dht ~seed:11 ~nodes:30 ~vs:4 in
  let rng = Prng.create ~seed:5 in
  Dht.fold_vs dht ~init:() ~f:(fun () from_vs ->
      let key = Prng.int rng Id.space_size in
      let found, hops = Dht.lookup dht ~from:from_vs.Dht.vs_id ~key in
      let owner = Dht.owner_of_key dht key in
      check Alcotest.int "routes to owner" owner.Dht.vs_id found.Dht.vs_id;
      check Alcotest.bool "hops >= 0" true (hops >= 0))

let test_lookup_own_key_zero_hops () =
  let dht = build_dht ~seed:12 ~nodes:10 ~vs:3 in
  Dht.fold_vs dht ~init:() ~f:(fun () v ->
      let _, hops = Dht.lookup dht ~from:v.Dht.vs_id ~key:v.Dht.vs_id in
      check Alcotest.int "own key is local" 0 hops)

let test_lookup_hop_bound () =
  let dht = build_dht ~seed:13 ~nodes:100 ~vs:5 in
  let rng = Prng.create ~seed:6 in
  let max_hops = ref 0 in
  for _ = 1 to 500 do
    let from = (Dht.owner_of_key dht (Prng.int rng Id.space_size)).Dht.vs_id in
    let key = Prng.int rng Id.space_size in
    let _, hops = Dht.lookup dht ~from ~key in
    if hops > !max_hops then max_hops := hops
  done;
  (* 500 VSs: greedy finger routing stays within ~2 log2(n) = 18 *)
  check Alcotest.bool "O(log n) hops" true (!max_hops <= 20)

let test_put_get () =
  let dht : string Dht.t = Dht.create ~seed:14 in
  for i = 0 to 9 do
    ignore (Dht.join dht ~capacity:1.0 ~underlay:i ~n_vs:2)
  done;
  let from = (Dht.owner_of_key dht 0).Dht.vs_id in
  ignore (Dht.put dht ~from ~key:12345 "hello");
  ignore (Dht.put dht ~from ~key:12345 "world");
  let values, _ = Dht.get dht ~from ~key:12345 in
  check Alcotest.(list string) "both stored" [ "world"; "hello" ] values;
  let none, _ = Dht.get dht ~from ~key:777 in
  check Alcotest.(list string) "missing key" [] none

let test_items_in_region () =
  let dht : int Dht.t = Dht.create ~seed:15 in
  for i = 0 to 9 do
    ignore (Dht.join dht ~capacity:1.0 ~underlay:i ~n_vs:2)
  done;
  let from = (Dht.owner_of_key dht 0).Dht.vs_id in
  let keys = [ 100; 5000; 1_000_000; Id.space_size - 1 ] in
  List.iter (fun k -> ignore (Dht.put dht ~from ~key:k k)) keys;
  (* every item is visible in exactly one VS's region *)
  List.iter
    (fun k ->
      let owners =
        Dht.fold_vs dht ~init:0 ~f:(fun acc v ->
            let items = Dht.items_in_region dht (Dht.region_of_vs dht v) in
            if List.exists (fun (key, _) -> key = k) items then acc + 1 else acc)
      in
      check Alcotest.int "exactly one region" 1 owners)
    keys;
  Dht.drain_items dht ~f:(fun _ _ _ -> ());
  let values, _ = Dht.get dht ~from ~key:100 in
  check Alcotest.(list int) "drained" [] values

(* Puts to one key come back newest first.  [drain_items] visits the
   owners in ring order; an owner's keys counter-clockwise from its id
   (from the top of the ring when one VS owns it all); one key's
   payloads in put order.  Keys are put out of that order, repeated
   and interleaved. *)
let test_store_order () =
  List.iter
    (fun (nodes, vs) ->
      let dht : (int * int) Dht.t = Dht.create ~seed:17 in
      for i = 0 to nodes - 1 do
        ignore (Dht.join dht ~capacity:1.0 ~underlay:i ~n_vs:vs)
      done;
      let ids = Dht.vs_ids dht in
      let n = Array.length ids in
      (* Per VS: its id, one below, its predecessor + 1 and the top and
         bottom of the id space, each wherever it lands. *)
      let keys =
        List.sort_uniq Int.compare
          (0 :: (Id.space_size - 1)
           :: List.concat
                (List.init n (fun i ->
                     [ ids.(i); Id.sub ids.(i) 1;
                       Id.add ids.((i + n - 1) mod n) 1 ])))
      in
      let from = ids.(0) in
      let puts =
        List.concat_map (fun r -> List.map (fun k -> (k, r)) (List.rev keys)) [ 0; 1; 2 ]
      in
      List.iter (fun (k, r) -> ignore (Dht.put dht ~from ~key:k (k, r))) puts;
      List.iter
        (fun k ->
          check Alcotest.(list (pair int int)) "newest first"
            [ (k, 2); (k, 1); (k, 0) ] (fst (Dht.get dht ~from ~key:k)))
        keys;
      let last i = if n = 1 then Id.space_size - 1 else ids.(i) in
      let vss = Array.of_list (List.rev (Dht.fold_vs dht ~init:[] ~f:(fun acc v -> v :: acc))) in
      let owner k =
        List.find
          (fun i -> Region.contains (Dht.region_of_vs dht vss.(i)) k)
          (List.init n Fun.id)
      in
      let expected =
        List.concat_map
          (fun i ->
            List.filter (fun k -> owner k = i) keys
            |> List.sort (fun a b ->
                   Int.compare (Id.distance_cw a (last i)) (Id.distance_cw b (last i)))
            |> List.concat_map (fun k ->
                   List.map (fun r -> (ids.(i), k, r)) [ 0; 1; 2 ]))
          (List.init n Fun.id)
      in
      let drained = ref [] in
      Dht.drain_items dht ~f:(fun v k (k', r) ->
          check Alcotest.int "payload under its key" k k';
          drained := (v.Dht.vs_id, k, r) :: !drained);
      check
        Alcotest.(list (triple int int int))
        (Printf.sprintf "%d x %d drain order" nodes vs)
        expected (List.rev !drained))
    [ (1, 1); (1, 3); (4, 2); (12, 3) ]

let test_counters () =
  let dht = build_dht ~seed:16 ~nodes:20 ~vs:3 in
  Dht.reset_counters dht;
  let from = (Dht.owner_of_key dht 0).Dht.vs_id in
  ignore (Dht.lookup dht ~from ~key:123);
  ignore (Dht.lookup dht ~from ~key:456);
  check Alcotest.int "lookups" 2 (Dht.lookups_performed dht);
  check Alcotest.bool "hops recorded" true (Dht.hops_used dht >= 0);
  Dht.reset_counters dht;
  check Alcotest.int "reset" 0 (Dht.lookups_performed dht)

let prop_join_leave_partition =
  QCheck.Test.make ~name:"regions always partition the ring" ~count:50
    QCheck.(pair small_int (int_range 2 20))
    (fun (seed, nodes) ->
      let dht = build_dht ~seed ~nodes ~vs:3 in
      let rng = Prng.create ~seed:(seed + 1) in
      (* random churn *)
      for _ = 1 to 5 do
        if Prng.bool rng && Dht.n_nodes dht > 1 then begin
          let alive = Array.of_list (Dht.alive_nodes dht) in
          Dht.crash dht (Prng.choose rng alive).Dht.node_id
        end
        else ignore (Dht.join dht ~capacity:1.0 ~underlay:0 ~n_vs:2)
      done;
      let total =
        Dht.fold_vs dht ~init:0 ~f:(fun acc v ->
            acc + Region.len (Dht.region_of_vs dht v))
      in
      total = Id.space_size)

let () =
  Alcotest.run "chord"
    [
      ( "membership",
        [
          Alcotest.test_case "join counts" `Quick test_join_counts;
          Alcotest.test_case "regions partition" `Quick
            test_regions_partition_ring;
          Alcotest.test_case "owner matches region" `Quick
            test_owner_matches_region;
          Alcotest.test_case "join conserves load" `Quick
            test_load_conserved_by_join;
          Alcotest.test_case "leave conserves load" `Quick
            test_load_conserved_by_leave;
          Alcotest.test_case "partition after churn" `Quick
            test_regions_partition_after_churn;
          Alcotest.test_case "vs_ids follow the ring" `Quick
            test_vs_ids_follow_ring;
          Alcotest.test_case "ring wraps past the largest id" `Quick
            test_ring_wraps;
        ] );
      ( "transfer",
        [
          Alcotest.test_case "transfer_vs" `Quick test_transfer_vs;
          Alcotest.test_case "transfer of a departed VS fails" `Quick
            test_transfer_departed_vs_fails;
          Alcotest.test_case "a departed VS is off the ring" `Quick
            test_departed_vs_off_ring;
          Alcotest.test_case "transfer to dead" `Quick
            test_transfer_to_dead_fails;
          Alcotest.test_case "remove_vs absorbs" `Quick test_remove_vs_absorbs;
          Alcotest.test_case "depart never empties the ring" `Quick
            test_depart_refuses_to_empty_ring;
          Alcotest.test_case "report_vs fallback" `Quick
            test_report_vs_fallback;
        ] );
      ( "routing",
        [
          Alcotest.test_case "lookup finds owner" `Quick
            test_lookup_finds_owner;
          Alcotest.test_case "own key 0 hops" `Quick
            test_lookup_own_key_zero_hops;
          Alcotest.test_case "hop bound" `Quick test_lookup_hop_bound;
          Alcotest.test_case "put/get" `Quick test_put_get;
          Alcotest.test_case "items_in_region" `Quick test_items_in_region;
          Alcotest.test_case "store order: get and drain" `Quick
            test_store_order;
          Alcotest.test_case "counters" `Quick test_counters;
        ] );
      ("properties", [ qtest prop_join_leave_partition ]);
    ]
