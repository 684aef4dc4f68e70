(* End-to-end tests of the four-phase load-balancing round on small
   networks: Scenario -> Ktree -> LBI -> VSA -> VST. *)

module TS = P2plb_topology.Transit_stub
module Dht = P2plb_chord.Dht
module Ktree = P2plb_ktree.Ktree
module W = P2plb_workload.Workload
module Scenario = P2plb.Scenario
module Controller = P2plb.Controller
module Lbi = P2plb.Lbi
module Types = P2plb.Types
module Vst = P2plb.Vst
module Histogram = P2plb_metrics.Histogram

let check = Alcotest.check

let small_topology =
  {
    TS.ts5k_large with
    TS.transit_domains = 3;
    transit_nodes_per_domain = 2;
    stub_domains_per_transit = 3;
    mean_stub_size = 20;
  }

let small_config =
  { Scenario.default with n_nodes = 256; topology = small_topology }

let build seed = Scenario.build ~seed small_config

(* ---- LBI --------------------------------------------------------------- *)

let test_lbi_totals_exact () =
  let s = build 1 in
  let dht = s.Scenario.dht in
  let tree = Ktree.build ~k:2 dht in
  let lbi = Lbi.run ~rng:s.Scenario.rng tree dht in
  check (Alcotest.float 1e-6) "L = total load" (Dht.total_load dht)
    lbi.Types.l;
  check (Alcotest.float 1e-6) "C = total capacity" (Dht.total_capacity dht)
    lbi.Types.c;
  let true_min =
    Dht.fold_vs dht ~init:infinity ~f:(fun acc v -> Float.min acc v.Dht.load)
  in
  (* The aggregated minimum is over each node's own minimum, which is
     the global minimum since every node reports. *)
  check (Alcotest.float 1e-9) "L_min" true_min lbi.Types.l_min

(* A node's report: its load and smallest VS load from the node table. *)
let test_node_lbi () =
  let s = build 2 in
  let dht = s.Scenario.dht in
  let n = Dht.alive_nth dht 0 in
  check (Alcotest.float 1e-9) "node load" (Dht.node_load n)
    (Float.Array.get (Dht.node_loads dht) 0);
  check (Alcotest.float 1e-9) "node l_min"
    (List.fold_left (fun acc v -> Float.min acc v.Dht.load) infinity n.Dht.vss)
    (Float.Array.get (Dht.node_l_mins dht) 0)

(* ---- full controller round --------------------------------------------- *)

let test_balances_all_heavy () =
  let s = build 3 in
  let o = Controller.run s in
  let hb, _, _ = o.Controller.census_before in
  let ha, _, _ = o.Controller.census_after in
  check Alcotest.bool "starts with many heavy" true (hb > 100);
  check Alcotest.int "no heavy remains" 0 ha

let test_load_conserved_by_round () =
  let s = build 4 in
  let before = Dht.total_load s.Scenario.dht in
  ignore (Controller.run s);
  check Alcotest.bool "total load unchanged" true
    (abs_float (before -. Dht.total_load s.Scenario.dht) < 1e-6)

let test_assignments_all_applied () =
  let s = build 5 in
  let o = Controller.run s in
  check Alcotest.int "no transfer skipped" 0 o.Controller.vst.Vst.skipped;
  check Alcotest.int "transfers = assignments"
    (List.length o.Controller.vsa.P2plb.Vsa.assignments)
    o.Controller.vst.Vst.transfers

let test_histogram_matches_moved_load () =
  let s = build 6 in
  let o = Controller.run s in
  check (Alcotest.float 1e-6) "histogram total = moved load"
    o.Controller.vst.Vst.moved_load
    (Histogram.total_weight o.Controller.vst.Vst.hist)

let test_ignorant_mode_also_balances () =
  let s = build 7 in
  let cc = { Controller.default with Controller.proximity = false } in
  let o = Controller.run ~config:cc s in
  let ha, _, _ = o.Controller.census_after in
  check Alcotest.int "ignorant balances too" 0 ha

let test_aware_moves_closer_than_ignorant () =
  let run proximity =
    let s = build 8 in
    let cc = { Controller.default with Controller.proximity } in
    let o = Controller.run ~config:cc s in
    Vst.mean_transfer_distance o.Controller.vst
  in
  let aware = run true and ignorant = run false in
  check Alcotest.bool
    (Printf.sprintf "aware (%.2f) < ignorant (%.2f)" aware ignorant)
    true (aware < ignorant)

let test_heavy_nodes_end_at_or_below_target () =
  let s = build 9 in
  let o = Controller.run s in
  let lbi = o.Controller.lbi in
  let eps = o.Controller.epsilon in
  Dht.fold_nodes s.Scenario.dht ~init:() ~f:(fun () n ->
      let target =
        P2plb.Classify.target_load ~lbi ~epsilon:eps ~capacity:n.Dht.capacity
      in
      check Alcotest.bool "node at or below target" true
        (Dht.node_load n <= target +. 1e-9))

let test_rounds_are_logarithmic () =
  let s = build 10 in
  let o = Controller.run s in
  (* id space is 32-bit: depth (hence rounds) bounded by 33 *)
  check Alcotest.bool "lbi rounds bounded" true (o.Controller.lbi_rounds <= 33);
  check Alcotest.bool "vsa rounds bounded" true (o.Controller.vsa_rounds <= 33)

let test_k8_shallower_rounds () =
  let run k =
    let s = build 11 in
    let cc = { Controller.default with Controller.k } in
    (Controller.run ~config:cc s).Controller.tree_depth
  in
  check Alcotest.bool "k=8 shallower than k=2" true (run 8 < run 2)

let test_second_round_stable () =
  let s = build 12 in
  let o1 = Controller.run s in
  let o2 = Controller.run s in
  let ha1, _, _ = o1.Controller.census_after in
  check Alcotest.int "first round balances" 0 ha1;
  (* nothing left to move *)
  check Alcotest.bool "second round moves (almost) nothing" true
    (Controller.moved_fraction o2 < 0.01)

let test_pareto_workload_balances () =
  let config = { small_config with Scenario.workload = W.default_pareto } in
  let s = Scenario.build ~seed:13 config in
  let o = Controller.run s in
  let hb, _, _ = o.Controller.census_before in
  let ha, _, _ = o.Controller.census_after in
  check Alcotest.bool "pareto: heavy shrink drastically" true
    (ha <= hb / 10)

let test_churned_network_rebalances () =
  let s = build 14 in
  ignore (Controller.run s);
  Scenario.crash_nodes s 30;
  Scenario.join_nodes s 30;
  let o = Controller.run s in
  let ha, _, _ = o.Controller.census_after in
  check Alcotest.bool "post-churn round leaves few heavy" true (ha <= 3)

let test_experiments_smoke () =
  (* tiny-scale versions of the paper experiments run end to end *)
  let r = P2plb.Experiments.fig4 ~seed:15 ~n_nodes:128 () in
  check Alcotest.bool "fig4 heavy before" true (r.P2plb.Experiments.heavy_before > 0);
  check Alcotest.int "fig4 heavy after" 0 r.P2plb.Experiments.heavy_after;
  check Alcotest.bool "gini improves" true
    (r.P2plb.Experiments.gini_after < r.P2plb.Experiments.gini_before);
  let p = P2plb.Experiments.fig7 ~seed:16 ~graphs:1 ~n_nodes:128 () in
  check Alcotest.bool "fig7 aware closer" true
    (p.P2plb.Experiments.aware_mean <= p.P2plb.Experiments.ignorant_mean);
  let c = P2plb.Experiments.churn ~seed:17 ~n_nodes:128 () in
  check Alcotest.bool "churn repairs" true
    c.P2plb.Experiments.tree_consistent_after

let () =
  Alcotest.run "integration"
    [
      ( "lbi",
        [
          Alcotest.test_case "totals exact" `Quick test_lbi_totals_exact;
          Alcotest.test_case "node lbi" `Quick test_node_lbi;
        ] );
      ( "controller",
        [
          Alcotest.test_case "balances all heavy" `Quick
            test_balances_all_heavy;
          Alcotest.test_case "load conserved" `Quick
            test_load_conserved_by_round;
          Alcotest.test_case "assignments applied" `Quick
            test_assignments_all_applied;
          Alcotest.test_case "histogram total" `Quick
            test_histogram_matches_moved_load;
          Alcotest.test_case "ignorant balances" `Quick
            test_ignorant_mode_also_balances;
          Alcotest.test_case "aware is closer" `Quick
            test_aware_moves_closer_than_ignorant;
          Alcotest.test_case "at or below target" `Quick
            test_heavy_nodes_end_at_or_below_target;
          Alcotest.test_case "rounds bounded" `Quick
            test_rounds_are_logarithmic;
          Alcotest.test_case "k=8 shallower" `Quick test_k8_shallower_rounds;
          Alcotest.test_case "second round stable" `Quick
            test_second_round_stable;
          Alcotest.test_case "pareto balances" `Quick
            test_pareto_workload_balances;
          Alcotest.test_case "churn rebalance" `Quick
            test_churned_network_rebalances;
          Alcotest.test_case "experiments smoke" `Slow test_experiments_smoke;
        ] );
    ]
