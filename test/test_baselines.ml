module TS = P2plb_topology.Transit_stub
module Dht = P2plb_chord.Dht
module Scenario = P2plb.Scenario
module Baselines = P2plb.Baselines

let check = Alcotest.check

let small_config =
  {
    Scenario.default with
    n_nodes = 256;
    topology =
      {
        TS.ts5k_large with
        TS.transit_domains = 3;
        transit_nodes_per_domain = 2;
        stub_domains_per_transit = 3;
        mean_stub_size = 20;
      };
  }

let build seed = Scenario.build ~seed small_config

let run_baseline seed f =
  let s = build seed in
  let before = Dht.total_load s.Scenario.dht in
  let r = f ~rng:s.Scenario.rng ~oracle:s.Scenario.oracle s.Scenario.dht in
  (s, before, r)

let test_cfs_thrashing_documented () =
  (* The paper cites CFS shedding's load-thrashing risk (§1.1): the
     shed load lands on ring successors, re-overloading them, so the
     heavy count does NOT converge to zero even after many rounds. *)
  let _, _, r = run_baseline 1 (fun ~rng:_ ~oracle dht -> Baselines.cfs_shed ~oracle dht) in
  check Alcotest.bool "starts heavy" true (r.Baselines.heavy_before > 50);
  check Alcotest.bool "terminates" true (r.Baselines.rounds <= 50);
  check Alcotest.bool "cannot fully balance" true (r.Baselines.heavy_after > 0);
  check Alcotest.bool "moves a lot of load doing so" true
    (r.Baselines.moved_load > 0.0)

let test_cfs_conserves_load () =
  let s, before, _ = run_baseline 2 (fun ~rng:_ ~oracle dht -> Baselines.cfs_shed ~oracle dht) in
  check Alcotest.bool "load conserved" true
    (abs_float (before -. Dht.total_load s.Scenario.dht) < 1e-6)

let test_cfs_keeps_nodes_in_ring () =
  let s, _, _ = run_baseline 3 (fun ~rng:_ ~oracle dht -> Baselines.cfs_shed ~oracle dht) in
  Dht.fold_nodes s.Scenario.dht ~init:() ~f:(fun () n ->
      check Alcotest.bool "every node keeps >= 1 VS" true
        (List.length n.Dht.vss >= 1))

let test_cfs_bounded_rounds () =
  let _, _, r =
    run_baseline 4 (fun ~rng:_ ~oracle dht ->
        Baselines.cfs_shed ~oracle dht)
  in
  check Alcotest.bool "round cap respected" true (r.Baselines.rounds <= 50)

let test_one_to_one () =
  let s, before, r =
    run_baseline 5 (fun ~rng ~oracle dht -> Baselines.rao_one_to_one ~rng ~oracle dht)
  in
  check Alcotest.bool "reduces heavy" true
    (r.Baselines.heavy_after < r.Baselines.heavy_before);
  check Alcotest.bool "load conserved" true
    (abs_float (before -. Dht.total_load s.Scenario.dht) < 1e-6);
  check Alcotest.bool "moved > 0" true (r.Baselines.moved_load > 0.0)

let test_one_to_many () =
  let s, before, r =
    run_baseline 6 (fun ~rng ~oracle dht -> Baselines.rao_one_to_many ~rng ~oracle dht)
  in
  check Alcotest.bool "reduces heavy" true
    (r.Baselines.heavy_after < r.Baselines.heavy_before);
  check Alcotest.bool "load conserved" true
    (abs_float (before -. Dht.total_load s.Scenario.dht) < 1e-6)

let test_many_to_many () =
  let s, before, r =
    run_baseline 7 (fun ~rng:_ ~oracle dht -> Baselines.rao_many_to_many ~oracle dht)
  in
  check Alcotest.bool "big reduction" true
    (r.Baselines.heavy_after < r.Baselines.heavy_before / 4);
  check Alcotest.bool "load conserved" true
    (abs_float (before -. Dht.total_load s.Scenario.dht) < 1e-6)

let test_histograms_total_moved () =
  List.iteri
    (fun i f ->
      let _, _, r = run_baseline (10 + i) f in
      check (Alcotest.float 1e-6) "histogram total = moved"
        r.Baselines.moved_load
        (P2plb_metrics.Histogram.total_weight r.Baselines.hist))
    [
      (fun ~rng:_ ~oracle dht -> Baselines.cfs_shed ~oracle dht);
      (fun ~rng ~oracle dht -> Baselines.rao_one_to_one ~rng ~oracle dht);
      (fun ~rng ~oracle dht -> Baselines.rao_one_to_many ~rng ~oracle dht);
      (fun ~rng:_ ~oracle dht -> Baselines.rao_many_to_many ~oracle dht);
    ]

let test_many_to_many_close_to_ours_in_balance () =
  (* many-to-many is our pairing without tree/proximity: balance
     quality should be comparable to ours. *)
  let s1 = build 20 in
  let o = P2plb.Controller.run s1 in
  let _, _, r =
    run_baseline 20 (fun ~rng:_ ~oracle dht -> Baselines.rao_many_to_many ~oracle dht)
  in
  let _, _, ours_after = o.P2plb.Controller.census_after in
  ignore ours_after;
  let ha, _, _ = o.P2plb.Controller.census_after in
  check Alcotest.bool "comparable residual heavy" true
    (abs (r.Baselines.heavy_after - ha) <= 20)

let () =
  Alcotest.run "baselines"
    [
      ( "cfs",
        [
          Alcotest.test_case "thrashing documented" `Quick
            test_cfs_thrashing_documented;
          Alcotest.test_case "conserves load" `Quick test_cfs_conserves_load;
          Alcotest.test_case "keeps nodes" `Quick test_cfs_keeps_nodes_in_ring;
          Alcotest.test_case "bounded rounds" `Quick test_cfs_bounded_rounds;
        ] );
      ( "rao",
        [
          Alcotest.test_case "one-to-one" `Quick test_one_to_one;
          Alcotest.test_case "one-to-many" `Quick test_one_to_many;
          Alcotest.test_case "many-to-many" `Quick test_many_to_many;
          Alcotest.test_case "histogram totals" `Quick
            test_histograms_total_moved;
          Alcotest.test_case "m2m comparable balance" `Quick
            test_many_to_many_close_to_ours_in_balance;
        ] );
    ]
