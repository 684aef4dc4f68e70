(* The benchmark's own code: metric names, the statistics helpers,
   BENCHMARK.json against Spec, and allocation summed across domains. *)

module Stats = Perfbench.Stats
module Spec = Perfbench.Spec
module Json = Perfbench.Json
module W = Perfbench.Workloads

let check = Alcotest.check
let exact = Alcotest.float 0.0
let close = Alcotest.float 1e-12

let test_names () =
  let metrics = Spec.end_to_end @ Spec.per_layer in
  let names =
    List.map (fun (m : Spec.metric) -> m.name) metrics
    @ List.map fst Spec.workloads
  in
  List.iter (fun n -> check Alcotest.bool n true (Spec.valid_name n)) names;
  check Alcotest.int "every name is used once" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  List.iter
    (fun n ->
      check Alcotest.bool ("rejects " ^ String.escaped n) false (Spec.valid_name n))
    [ ""; "_lead"; "has space"; "a/b"; "caf\xc3\xa9"; String.make 65 'a' ];
  List.iter
    (fun (m : Spec.metric) ->
      check Alcotest.bool (m.name ^ " unit") true (Spec.valid_unit m.unit_))
    metrics;
  check
    Alcotest.(list string)
    "the program runs the declared workloads"
    (List.map fst Spec.workloads)
    (List.map (fun (w : W.t) -> w.name) W.all)

let samples n = List.init n (fun i -> float_of_int (i + 1))

let test_tail () =
  let t = Stats.tail (samples 1000) in
  check exact "1000 samples: p99" 99.0 t.pct;
  check exact "p99 is the 990th" 990.0 t.value;
  check Alcotest.int "sample count" 1000 t.samples;
  let t = Stats.tail (samples 100) in
  check exact "100 samples: p90" 90.0 t.pct;
  check exact "p90 is the 90th" 90.0 t.value;
  check exact "20 samples: p50" 50.0 (Stats.tail (samples 20)).pct;
  let t = Stats.tail (samples 19) in
  check exact "19 samples: no percentile qualifies" 100.0 t.pct;
  check exact "so the maximum" 19.0 t.value;
  check Alcotest.int "sample count" 19 t.samples;
  check exact "odd median" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  check exact "even median" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ])

let test_failed_frac () =
  let ff = Stats.failed_frac in
  check close "nothing failed" 0.0
    (ff ~transfers:10 ~skipped:0 ~aborted:0 ~failed_checks:0);
  check close "skips and aborts over every attempt" 0.5
    (ff ~transfers:5 ~skipped:2 ~aborted:3 ~failed_checks:0);
  check close "a failed check is a failure" 0.2
    (ff ~transfers:4 ~skipped:0 ~aborted:0 ~failed_checks:1);
  check close "no attempt" 0.0
    (ff ~transfers:0 ~skipped:0 ~aborted:0 ~failed_checks:0)

let test_par_eff () =
  check close "even tasks keep both domains busy" 1.0
    (Stats.par_eff ~task_s:[ 1.0; 1.0; 1.0; 1.0 ] ~jobs:2 ~wall_s:2.0);
  check close "one long task leaves a domain idle" (4.0 /. 6.0)
    (Stats.par_eff ~task_s:[ 3.0; 1.0 ] ~jobs:2 ~wall_s:3.0);
  check close "imbalance is the longest task over the mean" 1.5
    (Stats.imbalance [ 3.0; 1.0 ]);
  check close "even tasks" 1.0 (Stats.imbalance [ 2.0; 2.0 ])

let test_spec_round_trip () =
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  check Alcotest.string "BENCHMARK.json is Spec" (Json.pretty (Spec.to_json ()))
    text

let test_json_numbers () =
  List.iter
    (fun f -> check exact (Json.number f) f (float_of_string (Json.number f)))
    [ 0.1; 1.0 /. 3.0; 12345.678; 1e-9; 2.5e20; 42.0; -7.25 ]

(* Gc.allocated_bytes counts the calling domain only; churn_faults adds
   what its Par tasks allocate on other domains, so its figure must not
   depend on the job count. *)
let test_alloc_across_domains () =
  let alloc jobs =
    (W.churn_faults ~jobs ~layers:None ~fingerprints:false ~seed:3 ())
      .alloc_bytes
  in
  let a1 = alloc 1 and a2 = alloc 2 in
  let bound =
    Option.get
      (List.find
         (fun (m : Spec.metric) -> String.equal m.name "alloc_gb")
         Spec.end_to_end)
        .bound
  in
  check Alcotest.bool
    (Printf.sprintf "jobs 2 allocates %.0f bytes, jobs 1 %.0f" a2 a1)
    true
    (Float.abs ((a2 /. a1) -. 1.0) <= bound)

let () =
  Alcotest.run "perfbench"
    [
      ( "spec",
        [
          Alcotest.test_case "names" `Quick test_names;
          Alcotest.test_case "BENCHMARK.json round trip" `Quick
            test_spec_round_trip;
          Alcotest.test_case "json numbers" `Quick test_json_numbers;
        ] );
      ( "stats",
        [
          Alcotest.test_case "median and tail percentile" `Quick test_tail;
          Alcotest.test_case "failed_frac" `Quick test_failed_frac;
          Alcotest.test_case "par_eff and imbalance" `Quick test_par_eff;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "churn_faults at jobs 1 and 2" `Slow
            test_alloc_across_domains;
        ] );
    ]
