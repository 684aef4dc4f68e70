(* Double-run determinism regression: the flagship proximity
   experiment (Fig. 7), run twice with the same seed, must produce
   byte-identical reports and CSVs.  This guards at runtime what
   p2plint rules R1–R3 enforce syntactically: no polymorphic compare
   on float tuples, no hash-table iteration order leaking into
   results, no ambient randomness or wall-clock reads. *)

module E = P2plb.Experiments
module Csv = P2plb_metrics.Csv
module Obs = P2plb_obs.Obs
module Trace = P2plb_obs.Trace
module Spantree = P2plb_obs.Spantree
module Histogram = P2plb_metrics.Histogram

let check = Alcotest.check

let fig7_artifacts seed =
  let r = E.fig7 ~seed ~graphs:1 ~n_nodes:128 () in
  let report = E.render_proximity ~title:"determinism check" r in
  let csv = Csv.of_histogram r.E.aware ^ Csv.of_histogram r.E.ignorant in
  (report, csv)

let test_fig7_twice () =
  let report1, csv1 = fig7_artifacts 42 in
  let report2, csv2 = fig7_artifacts 42 in
  check Alcotest.string "report digests equal"
    (Digest.to_hex (Digest.string report1))
    (Digest.to_hex (Digest.string report2));
  check Alcotest.string "csv digests equal"
    (Digest.to_hex (Digest.string csv1))
    (Digest.to_hex (Digest.string csv2))

let test_fig7_seed_sensitivity () =
  (* The digest comparison is only meaningful if the artifacts react
     to the seed at all. *)
  let report42, _ = fig7_artifacts 42 in
  let report43, _ = fig7_artifacts 43 in
  check Alcotest.bool "different seeds differ" true
    (not (String.equal report42 report43))

let test_balance_round_twice () =
  let run () =
    let r = E.fig4 ~seed:7 ~n_nodes:128 () in
    E.render_fig4 r
  in
  check Alcotest.string "fig4 digests equal"
    (Digest.to_hex (Digest.string (run ())))
    (Digest.to_hex (Digest.string (run ())))

(* ---- paper-output pins -------------------------------------------------- *)

(* Hard digests of the paper-facing reports at small N.  The double-run
   cases above only compare a run against itself; these pins prove that
   a refactor leaves the figures where they were.  A change that moves
   one of them moved a paper number and must say so. *)

let digest s = Digest.to_hex (Digest.string s)

let test_paper_output_pins () =
  let fig4 = E.render_fig4 (E.fig4 ~seed:7 ~n_nodes:128 ()) in
  let fig7, fig7_csv = fig7_artifacts 42 in
  let tvsa = E.render_tvsa [ E.tvsa ~k:8 () ] in
  let baselines = E.render_baselines (E.baselines ~n_nodes:256 ()) in
  check Alcotest.string "fig4 report" "108e47174a8ba98c2fa5c439ea14e94b"
    (digest fig4);
  check Alcotest.string "fig7 report" "454ce2b2fffbc111426a41034dc8c0ce"
    (digest fig7);
  check Alcotest.string "fig7 csv" "a8884ad315163623fea8ec12a49fbb0a"
    (digest fig7_csv);
  check Alcotest.string "T-vsa report" "5130d9c2b966b792812abb7c147a85ad"
    (digest tvsa);
  check Alcotest.string "baselines report" "68c3dff5102d5b8b0097139a0c8d77a4"
    (digest baselines)

(* ---- observability ------------------------------------------------------ *)

(* The obs bundle is part of the determinism contract: the JSONL trace
   and the registry dump must be byte-identical across same-seed runs,
   observation must not perturb the run it watches, and the Fig. 7
   histogram must be reconstructible from the trace alone. *)

let observed_fig7 seed =
  let obs = Obs.create () in
  let r = E.fig7 ~obs ~seed ~graphs:1 ~n_nodes:128 () in
  (r, obs)

let test_obs_digests_twice () =
  let _, o1 = observed_fig7 42 in
  let _, o2 = observed_fig7 42 in
  check Alcotest.string "trace digests equal"
    (Trace.digest (Obs.trace o1))
    (Trace.digest (Obs.trace o2));
  check Alcotest.string "metrics views equal"
    (Spantree.dump_totals (Spantree.of_run (Obs.trace o1)))
    (Spantree.dump_totals (Spantree.of_run (Obs.trace o2)));
  let _, o3 = observed_fig7 43 in
  check Alcotest.bool "different seeds trace differently" true
    (not
       (String.equal
          (Trace.digest (Obs.trace o1))
          (Trace.digest (Obs.trace o3))))

let test_observation_does_not_perturb () =
  let plain = E.fig7 ~seed:42 ~graphs:1 ~n_nodes:128 () in
  let observed, _ = observed_fig7 42 in
  check Alcotest.string "observed run renders identically"
    (E.render_proximity ~title:"perturbation check" plain)
    (E.render_proximity ~title:"perturbation check" observed)

let test_trace_rebuilds_fig7_histogram () =
  (* Fig. 7 from the trace alone: the load-weighted hop histogram the
     trace reader derives from vst/transfer events must match the one
     the experiment computed natively — exact bins, weights to
     summation order. *)
  let r, o = observed_fig7 42 in
  let hists =
    match Spantree.of_events (Trace.events (Obs.trace o)) with
    | Ok t -> t.Spantree.hop_histograms
    | Error e -> Alcotest.fail ("trace does not read back: " ^ e)
  in
  match List.assoc_opt "aware" hists with
  | None -> Alcotest.fail "trace has no aware hop histogram"
  | Some h ->
    check Alcotest.int "max bin" (Histogram.max_bin r.E.aware)
      (Histogram.max_bin h);
    check (Alcotest.float 1e-6) "total weight"
      (Histogram.total_weight r.E.aware)
      (Histogram.total_weight h);
    for b = 0 to Histogram.max_bin r.E.aware do
      check
        (Alcotest.float 1e-6)
        (Printf.sprintf "bin %d" b)
        (Histogram.weight_at r.E.aware b)
        (Histogram.weight_at h b)
    done

let () =
  Alcotest.run "determinism"
    [
      ( "double-run",
        [
          Alcotest.test_case "fig7 byte-identical" `Quick test_fig7_twice;
          Alcotest.test_case "fig7 seed-sensitive" `Quick
            test_fig7_seed_sensitivity;
          Alcotest.test_case "fig4 byte-identical" `Quick
            test_balance_round_twice;
        ] );
      ( "paper-output",
        [ Alcotest.test_case "pinned digests" `Quick test_paper_output_pins ] );
      ( "observability",
        [
          Alcotest.test_case "obs digests byte-identical" `Quick
            test_obs_digests_twice;
          Alcotest.test_case "observation does not perturb" `Quick
            test_observation_does_not_perturb;
          Alcotest.test_case "fig7 rebuilt from trace" `Quick
            test_trace_rebuilds_fig7_histogram;
        ] );
    ]
