(* benchdiff — validate and compare BENCH_<rev>.json records.

   Usage:
     benchdiff validate FILE
     benchdiff same-sim FILE1 FILE2
     benchdiff diff BASELINE CURRENT [--max-regress PCT]

   [validate] checks the schema (version, required fields, at least
   one experiment).  [same-sim] asserts the simulation-derived digests
   of two records match — the determinism half of @bench-smoke.
   [diff] is the @bench-gate comparator: exits non-zero when the
   current record regresses more than PCT (default 30%, a finite
   positive number) against the committed baseline on cpu, allocation,
   transfer/message counts, a micro-benchmark, or convergence round.

   Exit codes follow the p2plint contract: 0 = clean, 1 = gate
   failure (regression / digest mismatch / invalid record),
   2 = usage or unreadable input. *)

module Benchgate = P2plb_benchkit.Benchgate

let usage () =
  prerr_string
    "usage: benchdiff validate FILE\n\
    \       benchdiff same-sim FILE1 FILE2\n\
    \       benchdiff diff BASELINE CURRENT [--max-regress PCT]\n";
  exit 2

let validated path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg ->
    Printf.eprintf "benchdiff: %s\n" msg;
    exit 2
  | source -> (
    match Benchgate.parse source with
    | Ok f -> f
    | Error msg ->
      Printf.eprintf "benchdiff: %s: invalid: %s\n" path msg;
      exit 1)

let do_validate path =
  let f = validated path in
  Printf.printf
    "%s: ok (schema %d, rev %s, %d experiment(s), %d bench(es), sim digest \
     %s)\n"
    path Benchgate.schema_version f.Benchgate.f_meta.Benchgate.m_rev
    (List.length f.Benchgate.f_experiments)
    (List.length f.Benchgate.f_benches)
    (Benchgate.sim_digest f);
  exit 0

let do_same_sim a_path b_path =
  let a = validated a_path and b = validated b_path in
  let da = Benchgate.sim_digest a and db = Benchgate.sim_digest b in
  if String.equal da db then begin
    Printf.printf "sim digests match: %s\n" da;
    exit 0
  end
  else begin
    Printf.eprintf
      "benchdiff: sim digests differ — the simulation-derived metrics are \
       not deterministic\n  %s: %s\n  %s: %s\n"
      a_path da b_path db;
    exit 1
  end

let do_diff base_path cur_path max_regress =
  let baseline = validated base_path and current = validated cur_path in
  let report =
    Benchgate.diff ~max_regress_pct:max_regress ~baseline ~current
  in
  match report.Benchgate.rp_regressions with
  | [] ->
    Printf.printf
      "bench gate: ok — %d comparison row(s), no regression over %.0f%% \
       (baseline %s, current %s)\n"
      report.Benchgate.rp_checked max_regress base_path cur_path;
    exit 0
  | regs ->
    List.iter (fun r -> Printf.eprintf "REGRESSION: %s\n" r) regs;
    Printf.eprintf "benchdiff: %d regression(s) over %.0f%% vs %s\n"
      (List.length regs) max_regress base_path;
    exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: "validate" :: [ path ] -> do_validate path
  | _ :: "same-sim" :: a :: [ b ] -> do_same_sim a b
  | _ :: "diff" :: base :: cur :: rest ->
    let max_regress =
      match rest with
      | [] -> 30.0
      | [ "--max-regress"; pct ] -> (
        match float_of_string_opt pct with
        | Some p when Float.is_finite p && Float.compare p 0.0 > 0 -> p
        | Some _ | None ->
          Printf.eprintf "benchdiff: bad --max-regress value %S\n" pct;
          exit 2)
      | _ -> usage ()
    in
    do_diff base cur max_regress
  | _ -> usage ()
