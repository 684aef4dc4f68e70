module W = P2plb_workload.Workload
module Dht = P2plb_chord.Dht
module Prng = P2plb_prng.Prng

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let test_capacity_levels () =
  check Alcotest.int "5 levels" 5 (Array.length W.capacity_levels);
  let total = Array.fold_left ( +. ) 0.0 W.capacity_probabilities in
  check Alcotest.bool "probs sum to 1" true (abs_float (total -. 1.0) < 1e-9)

let test_capacity_frequencies () =
  let rng = Prng.create ~seed:1 in
  let counts = Array.make 5 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let c = W.sample_capacity rng in
    let i = W.capacity_category c in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iteri
    (fun i expected_p ->
      let actual = float_of_int counts.(i) /. float_of_int n in
      check Alcotest.bool
        (Printf.sprintf "category %d frequency ~%.3f (got %.4f)" i expected_p
           actual)
        true
        (abs_float (actual -. expected_p) < 0.02 +. (expected_p /. 5.0)))
    W.capacity_probabilities

let test_capacity_category () =
  Array.iteri
    (fun i level ->
      check Alcotest.int "exact level maps to itself" i
        (W.capacity_category level))
    W.capacity_levels;
  check Alcotest.int "near value" 1 (W.capacity_category 12.0)

let test_vs_load_zero_fraction () =
  let rng = Prng.create ~seed:2 in
  check (Alcotest.float 0.0) "zero fraction, zero load" 0.0
    (W.vs_load rng W.default_gaussian ~fraction:0.0)

let test_vs_load_nonnegative () =
  let rng = Prng.create ~seed:3 in
  for _ = 1 to 1000 do
    let f = Prng.unit_float rng in
    check Alcotest.bool "gaussian >= 0" true
      (W.vs_load rng W.default_gaussian ~fraction:f >= 0.0);
    check Alcotest.bool "pareto >= 0" true
      (W.vs_load rng W.default_pareto ~fraction:f >= 0.0)
  done

let test_gaussian_total_near_mu () =
  (* With small sigma, the total assigned load tracks mu. *)
  let dht : Dht.t = Dht.create ~seed:4 in
  for i = 0 to 199 do
    ignore (Dht.join dht ~capacity:1.0 ~underlay:i ~n_vs:5)
  done;
  let rng = Prng.create ~seed:5 in
  W.assign_loads rng { W.dist = W.Gaussian { sigma = 0.01 }; mu = 10.0 } dht;
  let total = Dht.total_load dht in
  check Alcotest.bool
    (Printf.sprintf "total ~mu (got %.3f)" total)
    true
    (abs_float (total -. 10.0) < 2.5)

let test_pareto_loads_heavy_tailed () =
  let rng = Prng.create ~seed:6 in
  let xs =
    Array.init 20000 (fun _ ->
        W.vs_load rng W.default_pareto ~fraction:0.001)
  in
  let mean = P2plb_metrics.Stats.total xs /. 20000.0 in
  let p50 = P2plb_metrics.Stats.percentile xs 50.0 in
  (* Pareto(1.5): median well below the mean *)
  check Alcotest.bool "median < mean" true (p50 < mean)

let test_assign_loads_covers_all_vss () =
  let dht : Dht.t = Dht.create ~seed:7 in
  for i = 0 to 19 do
    ignore (Dht.join dht ~capacity:1.0 ~underlay:i ~n_vs:3)
  done;
  let rng = Prng.create ~seed:8 in
  W.assign_loads rng W.default_gaussian dht;
  (* at least: total > 0 and loads roughly proportional to region size *)
  check Alcotest.bool "positive total" true (Dht.total_load dht > 0.0)

let prop_vs_load_scales_with_fraction =
  QCheck.Test.make ~name:"larger fraction, larger expected load" ~count:20
    QCheck.small_int
    (fun seed ->
      let avg fraction =
        let rng = Prng.create ~seed in
        let acc = ref 0.0 in
        for _ = 1 to 2000 do
          acc :=
            !acc
            +. W.vs_load rng
                 { W.dist = W.Gaussian { sigma = 0.01 }; mu = 1.0 }
                 ~fraction
        done;
        !acc /. 2000.0
      in
      avg 0.01 < avg 0.1)

let () =
  Alcotest.run "workload"
    [
      ( "capacity",
        [
          Alcotest.test_case "levels" `Quick test_capacity_levels;
          Alcotest.test_case "frequencies" `Slow test_capacity_frequencies;
          Alcotest.test_case "category" `Quick test_capacity_category;
        ] );
      ( "loads",
        [
          Alcotest.test_case "zero fraction" `Quick test_vs_load_zero_fraction;
          Alcotest.test_case "non-negative" `Quick test_vs_load_nonnegative;
          Alcotest.test_case "total ~mu" `Quick test_gaussian_total_near_mu;
          Alcotest.test_case "pareto heavy tail" `Quick
            test_pareto_loads_heavy_tailed;
          Alcotest.test_case "assign covers" `Quick
            test_assign_loads_covers_all_vss;
        ] );
      ("properties", [ qtest prop_vs_load_scales_with_fraction ]);
    ]
