(* Benchgate unit tests: the record's round trip, what parse rejects,
   the sim digest, the gate, and a parse of every committed record. *)

module Benchgate = P2plb_benchkit.Benchgate

let check = Alcotest.check

let mk_sim ?(conv = 1) () =
  {
    Benchgate.sm_rounds = 3;
    sm_conv_round = conv;
    sm_final_ratio = 1.02;
    sm_moved_frac = 0.4;
    sm_transfers = 42;
    sm_messages = 420;
    sm_series_digest = "0123456789abcdef";
  }

let mk_record ?(cpu = 1.0) ?(conv = 1) () =
  {
    Benchgate.f_meta =
      {
        Benchgate.m_rev = "test";
        m_nodes = 256;
        m_graphs = 1;
        m_seed = 7;
        m_smoke = true;
        m_jobs = 1;
        m_wall_s = 0.0;
        m_speedup = 1.0;
      };
    f_experiments =
      [
        {
          Benchgate.e_name = "smoke/convergence";
          e_cpu_s = cpu;
          e_alloc_bytes = 1e8;
          e_sim = mk_sim ~conv ();
        };
      ];
    f_benches = [ { Benchgate.b_name = "vst/round"; b_ns = 1000.0 } ];
  }

let test_round_trip () =
  let f = mk_record () in
  match Benchgate.parse (Benchgate.to_json f) with
  | Error e -> Alcotest.fail ("parse failed: " ^ e)
  | Ok f' ->
    check Alcotest.string "emit -> parse -> re-emit is byte-identical"
      (Benchgate.to_json f) (Benchgate.to_json f');
    check Alcotest.string "sim digest survives the trip"
      (Benchgate.sim_digest f) (Benchgate.sim_digest f')

(* [f]'s JSON with its meta line's schema version replaced by [n]. *)
let json_with_schema n f =
  let json = Benchgate.to_json f in
  let head v = Printf.sprintf "{\"k\":\"meta\",\"schema\":%d," v in
  let k = String.length (head Benchgate.schema_version) in
  assert (String.starts_with ~prefix:(head Benchgate.schema_version) json);
  head n ^ String.sub json k (String.length json - k)

let test_validate_rejects () =
  let f = mk_record () in
  (match Benchgate.parse (json_with_schema 99 f) with
  | Ok _ -> Alcotest.fail "wrong schema version accepted"
  | Error _ -> ());
  (match
     Benchgate.parse (Benchgate.to_json { f with Benchgate.f_experiments = [] })
   with
  | Ok _ -> Alcotest.fail "experiment-free record accepted"
  | Error _ -> ());
  match Benchgate.parse "{\"k\":\"mystery\"}\n" with
  | Ok _ -> Alcotest.fail "unknown kind accepted"
  | Error _ -> ()

let test_sim_digest_ignores_wall_clock () =
  (* cpu/alloc are wall-clock-tainted; the determinism digest must not
     see them, and must see every sim-derived field *)
  check Alcotest.string "cpu change is invisible"
    (Benchgate.sim_digest (mk_record ()))
    (Benchgate.sim_digest (mk_record ~cpu:9.9 ()));
  check Alcotest.bool "conv-round change is visible" false
    (String.equal
       (Benchgate.sim_digest (mk_record ()))
       (Benchgate.sim_digest (mk_record ~conv:2 ())))

let regressions report = report.Benchgate.rp_regressions

let test_diff () =
  let base = mk_record () in
  let diff current =
    Benchgate.diff ~max_regress_pct:30.0 ~baseline:base ~current
  in
  check Alcotest.int "identical records pass" 0
    (List.length (regressions (diff (mk_record ()))));
  check Alcotest.int "50% cpu slowdown trips the 30% gate" 1
    (List.length (regressions (diff (mk_record ~cpu:1.5 ()))));
  check Alcotest.int "20% cpu slowdown passes" 0
    (List.length (regressions (diff (mk_record ~cpu:1.2 ()))));
  check Alcotest.bool "later convergence round flagged" true
    (List.length (regressions (diff (mk_record ~conv:2 ()))) >= 1);
  check Alcotest.bool "lost convergence flagged" true
    (List.length (regressions (diff (mk_record ~conv:(-1) ()))) >= 1);
  let gone = { (mk_record ()) with Benchgate.f_experiments = [] } in
  check Alcotest.bool "missing experiment flagged" true
    (List.length (regressions (diff gone)) >= 1);
  let cur = mk_record () in
  let jobs4 =
    { cur with
      Benchgate.f_meta = { cur.Benchgate.f_meta with Benchgate.m_jobs = 4 } }
  in
  check Alcotest.bool "job-count mismatch flagged (not like-with-like)" true
    (List.exists
       (String.starts_with ~prefix:"job counts")
       (regressions (diff jobs4)))

let test_record_without_parallel_meta_rejected () =
  (* every record carries the parallel-run fields; one without them is
     malformed, not a sequential run *)
  let legacy =
    "{\"k\":\"meta\",\"schema\":1,\"rev\":\"old\",\"nodes\":256,\"graphs\":1,\"seed\":7,\"smoke\":true}\n\
     {\"k\":\"experiment\",\"name\":\"smoke\",\"cpu_s\":1,\"alloc_bytes\":1,\"rounds\":1,\"conv_round\":1,\"final_ratio\":1,\"moved_frac\":0,\"transfers\":0,\"messages\":0,\"series_digest\":\"d\"}\n"
  in
  match Benchgate.parse legacy with
  | Ok _ -> Alcotest.fail "record without jobs/wall_s/speedup accepted"
  | Error e ->
    check Alcotest.string "the first missing field is named"
      "line 1: missing field \"jobs\"" e

(* bench/baseline.json and results/BENCH_*.json, as the test's deps
   copy them next to it. *)
let test_committed_records_parse () =
  let results = "../../results" in
  let records =
    "../baseline.json"
    :: (Sys.readdir results |> Array.to_list
       |> List.filter (fun f ->
              String.starts_with ~prefix:"BENCH_" f
              && Filename.check_suffix f ".json")
       |> List.sort String.compare
       |> List.map (Filename.concat results))
  in
  check Alcotest.bool "results/ holds BENCH records" true
    (List.length records > 1);
  List.iter
    (fun path ->
      match
        Benchgate.parse (In_channel.with_open_bin path In_channel.input_all)
      with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: %s" path e)
    records

let () =
  Alcotest.run "benchgate"
    [
      ( "benchgate",
        [
          Alcotest.test_case "record round trip" `Quick test_round_trip;
          Alcotest.test_case "validate rejects bad records" `Quick
            test_validate_rejects;
          Alcotest.test_case "sim digest ignores wall clock" `Quick
            test_sim_digest_ignores_wall_clock;
          Alcotest.test_case "gate flags regressions" `Quick test_diff;
          Alcotest.test_case "record without run meta is rejected"
            `Quick test_record_without_parallel_meta_rejected;
          Alcotest.test_case "committed records parse" `Quick
            test_committed_records_parse;
        ] );
    ]
