(* p2plint self-test: drive every rule through the fixture snippets
   under lint_fixtures/ — positive hit, clean pass, and the
   suppression-comment path. *)

module Lint = P2plint.Lint
module Callgraph = P2plint.Callgraph
module Taint = P2plint.Taint
module Protocol = P2plint.Protocol
module Report = P2plint.Report

let check = Alcotest.check

let lint name = Lint.lint_file (Filename.concat "lint_fixtures" name)

let all_rule r vs =
  List.for_all (fun v -> String.equal v.Lint.v_rule r) vs

(* ---- R1 ---------------------------------------------------------------- *)

let test_r1_hits () =
  let vs = lint "r1_bad.ml" in
  check Alcotest.int "six R1 violations" 6 (List.length vs);
  check Alcotest.bool "all are R1" true (all_rule "R1" vs)

let test_r1_clean () =
  check Alcotest.int "typed comparators pass" 0 (List.length (lint "r1_ok.ml"))

(* ---- R2 ---------------------------------------------------------------- *)

let test_r2_hits () =
  let vs = lint "r2_bad.ml" in
  check Alcotest.int "fold and iter both flagged" 2 (List.length vs);
  check Alcotest.bool "all are R2" true (all_rule "R2" vs)

let test_r2_sorted_clean () =
  check Alcotest.int "sort in same binding redeems" 0
    (List.length (lint "r2_sorted.ml"))

let test_r2_suppressed () =
  check Alcotest.int "reasoned suppressions pass" 0
    (List.length (lint "r2_suppressed.ml"))

let test_r2_blindspots () =
  let vs = lint "r2_blindspot.ml" in
  check Alcotest.int "Stdlib./functor-instance/alias traversals flagged" 3
    (List.length vs);
  check Alcotest.bool "all are R2" true (all_rule "R2" vs);
  check Alcotest.bool "sorted escape is redeemed" true
    (List.for_all (fun v -> v.Lint.v_line < 31) vs)

let test_r2_suppression_needs_reason () =
  let vs = lint "r2_suppressed_noreason.ml" in
  check Alcotest.int "bare comment + unsuppressed fold" 2 (List.length vs);
  check Alcotest.bool "all are R2" true (all_rule "R2" vs);
  check Alcotest.bool "one names the missing reason" true
    (List.exists
       (fun v ->
         let msg = v.Lint.v_msg in
         String.length msg >= 11 && String.equal (String.sub msg 0 11)
           "suppression")
       vs)

(* ---- R3 / R4 ----------------------------------------------------------- *)

let test_r3_hits () =
  let vs = lint "r3_bad.ml" in
  check Alcotest.int "Sys.time/Random/Hashtbl.hash/gettimeofday" 4
    (List.length vs);
  check Alcotest.bool "all are R3" true (all_rule "R3" vs)

let test_r4_hits () =
  let vs = lint "r4_bad.ml" in
  check Alcotest.int "both catch-alls flagged" 2 (List.length vs);
  check Alcotest.bool "all are R4" true (all_rule "R4" vs)

let test_clean_module () =
  check Alcotest.int "clean module passes" 0 (List.length (lint "clean.ml"))

(* ---- R6 ---------------------------------------------------------------- *)

(* The r6_* positive/clean/suppressed fixtures sit under
   lint_fixtures/lib/ because R6 keys off the path containing "lib/";
   r6_outside.ml holds identical writes outside lib/ to pin the scope. *)

let test_r6_hits () =
  let vs = lint (Filename.concat "lib" "r6_bad.ml") in
  check Alcotest.int "print/printf/prerr/Stdlib.Format all flagged" 4
    (List.length vs);
  check Alcotest.bool "all are R6" true (all_rule "R6" vs)

let test_r6_clean () =
  check Alcotest.int "sprintf/fprintf/Buffer pass" 0
    (List.length (lint (Filename.concat "lib" "r6_ok.ml")))

let test_r6_suppressed () =
  check Alcotest.int "reasoned allow-r6 passes" 0
    (List.length (lint (Filename.concat "lib" "r6_suppressed.ml")))

let test_r6_outside_lib () =
  check Alcotest.int "same writes outside lib/ pass" 0
    (List.length (lint "r6_outside.ml"))

(* ---- R10 --------------------------------------------------------------- *)

let test_r10_hits () =
  let vs = lint "r10_bad.ml" in
  check Alcotest.int
    "ref write+read, incr, Hashtbl mutator, field write all flagged" 5
    (List.length vs);
  check Alcotest.bool "all are R10" true (all_rule "R10" vs)

let test_r10_clean () =
  check Alcotest.int "task-local state and outside-task mutation pass" 0
    (List.length (lint "r10_ok.ml"))

let test_r10_suppressed () =
  check Alcotest.int "reasoned allow-r10 passes" 0
    (List.length (lint "r10_suppressed.ml"))

(* ---- R5 ---------------------------------------------------------------- *)

let test_r5_missing_mli () =
  let vs = Lint.check_mli_dir (Filename.concat "lint_fixtures" "fakelib") in
  check Alcotest.int "exactly the uncovered module" 1 (List.length vs);
  match vs with
  | [ v ] ->
    check Alcotest.string "rule" "R5" v.Lint.v_rule;
    check Alcotest.bool "points at nomli.ml" true
      (Filename.basename v.Lint.v_file = "nomli.ml")
  | _ -> Alcotest.fail "expected exactly one violation"

(* ---- R7: interprocedural taint ----------------------------------------- *)

let fixture name = Filename.concat "lint_fixtures" name
let taintprog () = Callgraph.load [ fixture "taintprog" ]

let test_r7_chain_flagged () =
  let vs = Taint.analyze (taintprog ()) in
  check Alcotest.int "exactly the ambient leak" 1 (List.length vs);
  match vs with
  | [ v ] ->
    check Alcotest.string "rule" "R7" v.Lint.v_rule;
    check Alcotest.bool "located at the source site" true
      (String.equal (Filename.basename v.Lint.v_file) "ambient.ml");
    check Alcotest.bool "carries the full 3-hop call path" true
      (Option.is_some
         (Lint.find_sub v.Lint.v_msg
            "Controller.entry -> Helper.mid -> Ambient.leak"))
  | _ -> Alcotest.fail "expected exactly one violation"

let test_r7_suppressed_at_source () =
  let vs = Taint.analyze (taintprog ()) in
  check Alcotest.bool "allow-impure at the source kills the chain" true
    (List.for_all
       (fun v -> not (String.equal (Filename.basename v.Lint.v_file) "safe.ml"))
       vs)

let test_r7_invisible_per_file () =
  (* the same source file is clean under the per-file rules: its
     lib/sim/ path is R3-exempt, so only R7 can see the leak *)
  check Alcotest.int "per-file pass misses the lib/sim source" 0
    (List.length (lint "taintprog/lib/sim/ambient.ml"))

(* ---- R9: obs discipline ------------------------------------------------- *)

let test_r9 () =
  let vs = Protocol.analyze (Callgraph.load [ fixture "obsdisc" ]) in
  check Alcotest.int "two dropped ?obs + one leaky span" 3 (List.length vs);
  check Alcotest.bool "all are R9" true (all_rule "R9" vs);
  check Alcotest.int "threading and paired spans are clean" 0
    (List.length
       (List.filter
          (fun v ->
            String.equal (Filename.basename v.Lint.v_file) "span_ok.ml"
            || String.equal (Filename.basename v.Lint.v_file) "obs_api.ml")
          vs))

(* ---- finding IDs / JSON / baseline ------------------------------------- *)

let findings () = Report.assign_ids (Report.run_all [ "lint_fixtures" ])

let test_ids_stable_and_unique () =
  let f1 = findings () and f2 = findings () in
  check Alcotest.bool "fixtures produce findings" true (List.length f1 > 0);
  check Alcotest.bool "ids deterministic across runs" true
    (List.equal
       (fun a b -> String.equal a.Report.fd_id b.Report.fd_id)
       f1 f2);
  let ids = List.map (fun f -> f.Report.fd_id) f1 in
  check Alcotest.int "ids unique" (List.length ids)
    (List.length (List.sort_uniq String.compare ids))

let test_json_deterministic () =
  let run () = Report.to_json (findings ()) in
  check Alcotest.string "JSON byte-identical across two runs" (run ()) (run ())

let test_baseline_workflow () =
  let fs = findings () in
  let json = Report.to_json fs in
  (match Report.baseline_ids json with
  | Error e -> Alcotest.fail e
  | Ok ids ->
    check Alcotest.int "baseline round-trips every id" (List.length fs)
      (List.length ids);
    check Alcotest.int "baseline-covered findings are not new" 0
      (List.length (List.filter (Report.is_new ~baseline:ids) fs));
    check Alcotest.int "nothing stale against a fresh baseline" 0
      (List.length (Report.stale ~baseline:ids fs));
    let fake = "R0-000000000000" in
    check Alcotest.bool "a dead id is reported stale" true
      (List.mem fake (Report.stale ~baseline:(fake :: ids) fs)));
  match Report.baseline_ids "{}" with
  | Ok _ -> Alcotest.fail "malformed baseline accepted"
  | Error _ -> ()

let test_explain () =
  List.iter
    (fun r ->
      match Report.explain r with
      | Some _ -> ()
      | None -> Alcotest.fail (Printf.sprintf "no explanation for %s" r))
    Report.all_rules;
  check Alcotest.bool "unknown rule has none" true
    (Option.is_none (Report.explain "R42"))

(* ---- diagnostics format ------------------------------------------------ *)

let diag_re = Str.regexp {|^[^:]+\.ml:[0-9]+: \[R[0-9]+\] .+|}

let test_diagnostic_format () =
  let vs =
    lint "r1_bad.ml" @ lint "r3_bad.ml" @ lint "r4_bad.ml"
    @ lint (Filename.concat "lib" "r6_bad.ml")
    @ lint "r10_bad.ml"
    @ Taint.analyze (taintprog ())
    @ Protocol.analyze (Callgraph.load [ fixture "obsdisc" ])
  in
  List.iter
    (fun v ->
      let line = Lint.to_string v in
      check Alcotest.bool
        (Printf.sprintf "diagnostic shape: %s" line)
        true
        (Str.string_match diag_re line 0))
    vs

let test_run_is_sorted_and_nonempty () =
  let vs = Lint.run [ "lint_fixtures" ] in
  check Alcotest.bool "fixtures trip the linter" true (List.length vs > 0);
  let rec sorted = function
    | a :: (b :: _ as rest) ->
      Lint.compare_violation a b <= 0 && sorted rest
    | _ -> true
  in
  check Alcotest.bool "report is sorted" true (sorted vs)

let () =
  Alcotest.run "p2plint"
    [
      ( "r1",
        [
          Alcotest.test_case "positive hits" `Quick test_r1_hits;
          Alcotest.test_case "clean pass" `Quick test_r1_clean;
        ] );
      ( "r2",
        [
          Alcotest.test_case "positive hits" `Quick test_r2_hits;
          Alcotest.test_case "sorted pass" `Quick test_r2_sorted_clean;
          Alcotest.test_case "suppressed pass" `Quick test_r2_suppressed;
          Alcotest.test_case "suppression needs reason" `Quick
            test_r2_suppression_needs_reason;
          Alcotest.test_case "blind spots covered" `Quick test_r2_blindspots;
        ] );
      ( "r3-r4",
        [
          Alcotest.test_case "r3 hits" `Quick test_r3_hits;
          Alcotest.test_case "r4 hits" `Quick test_r4_hits;
          Alcotest.test_case "clean module" `Quick test_clean_module;
        ] );
      ("r5", [ Alcotest.test_case "missing mli" `Quick test_r5_missing_mli ]);
      ( "r6",
        [
          Alcotest.test_case "positive hits" `Quick test_r6_hits;
          Alcotest.test_case "clean pass" `Quick test_r6_clean;
          Alcotest.test_case "suppressed pass" `Quick test_r6_suppressed;
          Alcotest.test_case "outside lib/ pass" `Quick test_r6_outside_lib;
        ] );
      ( "r10-domains",
        [
          Alcotest.test_case "positive hits" `Quick test_r10_hits;
          Alcotest.test_case "clean pass" `Quick test_r10_clean;
          Alcotest.test_case "suppressed pass" `Quick test_r10_suppressed;
        ] );
      ( "r7-taint",
        [
          Alcotest.test_case "cross-module chain flagged with path" `Quick
            test_r7_chain_flagged;
          Alcotest.test_case "suppressed at source" `Quick
            test_r7_suppressed_at_source;
          Alcotest.test_case "invisible to per-file pass" `Quick
            test_r7_invisible_per_file;
        ] );
      ( "r9-obs",
        [ Alcotest.test_case "?obs threading + spans" `Quick test_r9 ] );
      ( "report",
        [
          Alcotest.test_case "file:line: [RULE] shape" `Quick
            test_diagnostic_format;
          Alcotest.test_case "run is sorted" `Quick
            test_run_is_sorted_and_nonempty;
          Alcotest.test_case "ids stable and unique" `Quick
            test_ids_stable_and_unique;
          Alcotest.test_case "json deterministic" `Quick
            test_json_deterministic;
          Alcotest.test_case "baseline workflow" `Quick test_baseline_workflow;
          Alcotest.test_case "explain covers every rule" `Quick test_explain;
        ] );
    ]
