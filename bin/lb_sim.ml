(* lb_sim — experiment driver reproducing each table/figure of
   Zhu & Hu, "Towards Efficient Load Balancing in Structured P2P
   Systems" (IPDPS 2004).  One subcommand per experiment. *)

module E = P2plb.Experiments
module Chaos = P2plb_chaos.Chaos
module Par = P2plb_sim.Par
module Obs = P2plb_obs.Obs
module Trace = P2plb_obs.Trace
module Registry = P2plb_obs.Registry
module Summary = P2plb_obs.Summary
module Spantree = P2plb_obs.Spantree
module Timeseries = P2plb_obs.Timeseries

open Cmdliner

let seed_arg =
  let doc = "Random seed (experiments are deterministic in the seed)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let nodes_arg default =
  let doc = "Number of overlay (physical DHT) nodes." in
  Arg.(value & opt int default & info [ "nodes"; "n" ] ~docv:"N" ~doc)

let graphs_arg =
  let doc = "Topology instances to aggregate (the paper uses 10)." in
  Arg.(value & opt int 10 & info [ "graphs" ] ~docv:"G" ~doc)

let jobs_arg =
  let doc =
    "Run independent tasks (graph instances, sweep points, fault rows, \
     chaos seeds) on $(docv) domains.  Output — tables, traces, metrics, \
     time-series — is byte-identical for every job count; the default is \
     sequential."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let pool_of_jobs jobs =
  if jobs < 1 then begin
    prerr_endline "lb_sim: --jobs must be >= 1";
    exit 2
  end
  else Par.create ~jobs

let csv_arg =
  let doc =
    "Also write machine-readable CSV series into $(docv) (created if \
     missing)."
  in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR" ~doc)

(* ---- observability sinks ---------------------------------------------- *)

let trace_out_arg =
  let doc =
    "Write the run's structured trace to $(docv) as JSONL: one event per \
     line, stamped with simulated time, byte-identical across same-seed \
     runs.  Render it with $(b,lb_sim trace-summary)."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let metrics_out_arg =
  let doc =
    "Write the run's metrics registry (sorted, digest-stable \
     $(i,name = value) lines) to $(docv)."
  in
  Arg.(
    value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let series_out_arg =
  let doc =
    "Write the run's per-round load time-series (JSONL, one sample per \
     balancing round, digest-stable) to $(docv).  Render or gate on it with \
     $(b,lb_sim convergence)."
  in
  Arg.(
    value & opt (some string) None & info [ "series-out" ] ~docv:"FILE" ~doc)

let sink_arg =
  Term.(
    const (fun t m s -> (t, m, s))
    $ trace_out_arg $ metrics_out_arg $ series_out_arg)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

(* Runs [f] with an observability bundle when either sink is requested
   and flushes the sinks afterwards (even if [f] raises), creating
   target directories as needed. *)
let sinked f (trace_out, metrics_out, series_out) =
  match (trace_out, metrics_out, series_out) with
  | None, None, None -> f None
  | _ ->
    let obs = Obs.create () in
    Fun.protect
      ~finally:(fun () ->
        let flush_to path write =
          mkdir_p (Filename.dirname path);
          write ~path;
          Printf.eprintf "wrote %s\n" path
        in
        Option.iter
          (fun p -> flush_to p (Trace.write_jsonl (Obs.trace obs)))
          trace_out;
        Option.iter
          (fun p -> flush_to p (Registry.write (Obs.metrics obs)))
          metrics_out;
        Option.iter
          (fun p -> flush_to p (Timeseries.write (Obs.series obs)))
          series_out)
      (fun () -> f (Some obs))

let dump_proximity_csv dir name (r : E.proximity_result) =
  let module Csv = P2plb_metrics.Csv in
  mkdir_p dir;
  let write suffix h =
    let path = Filename.concat dir (name ^ "_" ^ suffix ^ ".csv") in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (Csv.of_histogram h));
    Printf.eprintf "wrote %s\n" path
  in
  write "aware" r.E.aware;
  write "ignorant" r.E.ignorant

(* ---- experiments -------------------------------------------------------

   Each [do_*] body takes the optional observability bundle directly,
   so [all] can thread a single bundle through every experiment; the
   [run_*] wrappers bind the per-subcommand sink flags. *)

let do_fig4 obs seed n_nodes =
  print_string (E.render_fig4 (E.fig4 ?obs ~seed ~n_nodes ()))

let do_fig5 obs seed n_nodes =
  print_string
    (E.render_capacity_alignment
       ~title:"Figure 5 — load vs capacity after LB (Gaussian loads)"
       (E.fig5 ?obs ~seed ~n_nodes ()))

let do_fig6 obs seed n_nodes =
  print_string
    (E.render_capacity_alignment
       ~title:"Figure 6 — load vs capacity after LB (Pareto loads)"
       (E.fig6 ?obs ~seed ~n_nodes ()))

let do_fig7 ~pool obs seed graphs n_nodes csv =
  let r = E.fig7 ~pool ?obs ~seed ~graphs ~n_nodes () in
  print_string
    (E.render_proximity
       ~title:
         "Figure 7 — moved load vs transfer distance, ts5k-large\n\
          (paper: aware 67% within 2 hops, 86% within 10; ignorant 13% \
          within 10)"
       r);
  Option.iter (fun dir -> dump_proximity_csv dir "fig7" r) csv

let do_fig8 ~pool obs seed graphs n_nodes csv =
  let r = E.fig8 ~pool ?obs ~seed ~graphs ~n_nodes () in
  print_string
    (E.render_proximity
       ~title:
         "Figure 8 — moved load vs transfer distance, ts5k-small\n\
          (paper: aware still clearly ahead of ignorant with nodes \
          scattered Internet-wide)"
       r);
  Option.iter (fun dir -> dump_proximity_csv dir "fig8" r) csv

let do_tvsa ~pool obs seed =
  print_string
    (E.render_tvsa
       [ E.tvsa ~pool ?obs ~seed ~k:2 (); E.tvsa ~pool ?obs ~seed ~k:8 () ])

let do_baselines ~pool obs seed n_nodes =
  print_string (E.render_baselines (E.baselines ~pool ?obs ~seed ~n_nodes ()))

let do_churn obs seed n_nodes =
  print_string (E.render_churn (E.churn ?obs ~seed ~n_nodes ()))

let do_resilience ~pool obs seed n_nodes =
  print_string (E.render_resilience (E.resilience ~pool ?obs ~seed ~n_nodes ()))

let do_verify obs seed n_nodes =
  let module Scenario = P2plb.Scenario in
  let module Ktree = P2plb_ktree.Ktree in
  let module Dht = P2plb_chord.Dht in
  let s = Scenario.build ~seed { Scenario.default with n_nodes } in
  let total = Dht.total_load s.Scenario.dht in
  let tree = Ktree.build ~k:2 s.Scenario.dht in
  let step name result =
    match result with
    | Ok () -> Printf.printf "%-40s ok\n" name
    | Error e ->
      Printf.printf "%-40s FAILED: %s\n" name e;
      exit 1
  in
  step "fresh network invariants"
    (P2plb.Invariants.all ~tree ~expected_total:total s.Scenario.dht);
  let r = P2plb.Multiround.run ?obs s in
  Printf.printf "%-40s %d round(s), final heavy=%d\n" "load balancing"
    (List.length r.P2plb.Multiround.rounds)
    r.P2plb.Multiround.final_heavy;
  Ktree.refresh tree s.Scenario.dht;
  step "post-balance invariants"
    (P2plb.Invariants.all ~tree ~expected_total:total s.Scenario.dht);
  Scenario.crash_nodes s (n_nodes / 10);
  Scenario.join_nodes s (n_nodes / 10);
  Ktree.refresh tree s.Scenario.dht;
  step "post-churn invariants"
    (P2plb.Invariants.all ~tree ~expected_total:total s.Scenario.dht);
  print_endline "all checks passed"

let do_chaos ~pool obs base_seed seeds n_nodes max_rounds replay =
  match replay with
  | Some seed ->
    print_string (Chaos.replay ?obs ~n_nodes ~max_rounds ~seed ())
  | None ->
    let r = Chaos.soak ~pool ?obs ~n_nodes ~max_rounds ~seeds ~base_seed () in
    print_string (Chaos.render r);
    if Chaos.failed r then exit 1

let do_overhead ~pool obs seed =
  print_string (E.render_overhead (E.overhead ~pool ?obs ~seed ()))

let do_scale ~pool obs seed sizes rounds =
  print_string (E.render_scale (E.scale_run ~pool ?obs ~seed ~sizes ~rounds ()))

let do_durability ~pool _obs seed n_nodes =
  print_string (E.render_durability (E.durability ~pool ~seed ~n_nodes ()))

let do_drift obs seed n_nodes =
  print_string (E.render_load_drift (E.load_drift ?obs ~seed ~n_nodes ()))

let do_ablations ~pool obs seed n_nodes =
  print_string
    (E.render_sweep
       ~title:"Ablation — epsilon_rel (balance slack vs residual heavies)"
       ~header:[ "epsilon_rel"; "heavy after"; "moved" ]
       (List.map
          (fun (e, h, m) ->
            [
              Printf.sprintf "%.2f" e;
              string_of_int h;
              Printf.sprintf "%.1f%%" (100.0 *. m);
            ])
          (E.ablation_epsilon ~pool ?obs ~seed ~n_nodes ())));
  print_newline ();
  print_string
    (E.render_sweep ~title:"Ablation — rendezvous threshold"
       ~header:[ "threshold"; "CDF@2"; "CDF@10" ]
       (List.map
          (fun (t, c2, c10) ->
            [
              string_of_int t;
              Printf.sprintf "%.3f" c2;
              Printf.sprintf "%.3f" c10;
            ])
          (E.ablation_threshold ~pool ?obs ~seed ~n_nodes ())));
  print_newline ();
  print_string
    (E.render_sweep ~title:"Ablation — space-filling curve for VSA keys"
       ~header:[ "curve"; "CDF@2"; "CDF@10" ]
       (List.map
          (fun (c, c2, c10) ->
            [ c; Printf.sprintf "%.3f" c2; Printf.sprintf "%.3f" c10 ])
          (E.ablation_curve ~pool ?obs ~seed ~n_nodes ())));
  print_newline ();
  print_string
    (E.render_sweep ~title:"Ablation — K-nary tree degree"
       ~header:[ "K"; "depth"; "KT nodes"; "messages" ]
       (List.map
          (fun (k, d, n, m) ->
            [
              string_of_int k;
              string_of_int d;
              string_of_int n;
              string_of_int m;
            ])
          (E.ablation_k ~pool ?obs ~seed ~n_nodes ())));
  print_newline ();
  print_string
    (E.render_sweep
       ~title:"Ablation — landmark count vs per-axis key resolution"
       ~header:[ "m"; "order"; "CDF@2"; "CDF@10" ]
       (List.map
          (fun (m, o, c2, c10) ->
            [
              string_of_int m;
              string_of_int o;
              Printf.sprintf "%.3f" c2;
              Printf.sprintf "%.3f" c10;
            ])
          (E.ablation_landmarks ~pool ?obs ~seed ~n_nodes ())))

let do_all ~pool obs seed graphs n_nodes =
  do_fig4 obs seed n_nodes;
  print_newline ();
  do_fig5 obs seed n_nodes;
  print_newline ();
  do_fig6 obs seed n_nodes;
  print_newline ();
  do_fig7 ~pool obs seed graphs n_nodes None;
  print_newline ();
  do_fig8 ~pool obs seed graphs n_nodes None;
  print_newline ();
  do_tvsa ~pool obs seed;
  print_newline ();
  do_baselines ~pool obs seed n_nodes;
  print_newline ();
  do_churn obs seed (Int.min n_nodes 1024);
  print_newline ();
  do_resilience ~pool obs seed (Int.min n_nodes 1024);
  print_newline ();
  do_overhead ~pool obs seed;
  print_newline ();
  do_durability ~pool obs seed (Int.min n_nodes 512);
  print_newline ();
  do_drift obs seed (Int.min n_nodes 1024);
  print_newline ();
  do_ablations ~pool obs seed (Int.min n_nodes 2048)

let run_fig4 seed n sinks = sinked (fun obs -> do_fig4 obs seed n) sinks
let run_fig5 seed n sinks = sinked (fun obs -> do_fig5 obs seed n) sinks
let run_fig6 seed n sinks = sinked (fun obs -> do_fig6 obs seed n) sinks

let run_fig7 seed graphs n csv jobs sinks =
  sinked (fun obs -> do_fig7 ~pool:(pool_of_jobs jobs) obs seed graphs n csv) sinks

let run_fig8 seed graphs n csv jobs sinks =
  sinked (fun obs -> do_fig8 ~pool:(pool_of_jobs jobs) obs seed graphs n csv) sinks

let run_tvsa seed jobs sinks =
  sinked (fun obs -> do_tvsa ~pool:(pool_of_jobs jobs) obs seed) sinks

let run_baselines seed n jobs sinks =
  sinked (fun obs -> do_baselines ~pool:(pool_of_jobs jobs) obs seed n) sinks

let run_churn seed n sinks = sinked (fun obs -> do_churn obs seed n) sinks

let run_resilience seed n jobs sinks =
  sinked (fun obs -> do_resilience ~pool:(pool_of_jobs jobs) obs seed n) sinks

let run_chaos seed seeds n rounds replay jobs sinks =
  sinked
    (fun obs -> do_chaos ~pool:(pool_of_jobs jobs) obs seed seeds n rounds replay)
    sinks

let run_verify seed n sinks = sinked (fun obs -> do_verify obs seed n) sinks
let run_overhead seed jobs sinks =
  sinked (fun obs -> do_overhead ~pool:(pool_of_jobs jobs) obs seed) sinks

let run_scale seed sizes rounds jobs sinks =
  sinked (fun obs -> do_scale ~pool:(pool_of_jobs jobs) obs seed sizes rounds) sinks

let run_durability seed n jobs sinks =
  sinked (fun obs -> do_durability ~pool:(pool_of_jobs jobs) obs seed n) sinks

let run_drift seed n sinks = sinked (fun obs -> do_drift obs seed n) sinks

let run_ablations seed n jobs sinks =
  sinked (fun obs -> do_ablations ~pool:(pool_of_jobs jobs) obs seed n) sinks

let run_all seed graphs n jobs sinks =
  sinked (fun obs -> do_all ~pool:(pool_of_jobs jobs) obs seed graphs n) sinks

(* ---- trace analytics ---------------------------------------------------- *)

let run_trace_summary file =
  match Trace.load_jsonl file with
  | Ok evs -> print_string (Summary.render evs)
  | Error e ->
    prerr_endline ("trace-summary: " ^ e);
    exit 1

(* A plain [string] positional, not cmdliner's [file] converter: the
   converter rejects a missing path with its own exit code (124) before
   our code runs, while the contract here is exit 1 with a one-line
   diagnostic for missing and truncated inputs alike. *)
let trace_file_arg =
  let doc = "Trace to render (JSONL, as written by $(b,--trace-out))." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

let run_trace_analyze file phase round json =
  match Trace.load_jsonl file with
  | Error e ->
    prerr_endline ("trace-analyze: " ^ e);
    exit 1
  | Ok evs -> (
    match Spantree.of_events evs with
    | Error e ->
      prerr_endline ("trace-analyze: " ^ e);
      exit 1
    | Ok forest ->
      if json then print_string (Spantree.to_jsonl ?phase ?round forest)
      else print_string (Spantree.render ?phase ?round forest))

(* ---- convergence -------------------------------------------------------- *)

let run_convergence seed n_nodes max_rounds epsilon_rel chaos_seed json
    series_out =
  let module Scenario = P2plb.Scenario in
  let module Controller = P2plb.Controller in
  let module Multiround = P2plb.Multiround in
  let module Faults = P2plb_sim.Faults in
  let obs = Obs.create () in
  let config = { Controller.default with Controller.epsilon_rel } in
  let faults =
    Option.map
      (fun cs -> Faults.create ~seed:cs (Chaos.derive_config ~seed:cs))
      chaos_seed
  in
  let s = Scenario.build ~seed { Scenario.default with Scenario.n_nodes } in
  let (_ : Multiround.result) =
    Multiround.run ~config ?faults ~obs ~max_rounds s
  in
  let series = Obs.series obs in
  let samples = Timeseries.samples series in
  if json then print_string (Timeseries.jsonl_of_samples samples)
  else begin
    print_string (Timeseries.render samples);
    Printf.printf "series digest: %s\n" (Timeseries.digest series)
  end;
  Option.iter
    (fun path ->
      mkdir_p (Filename.dirname path);
      Timeseries.write series ~path;
      Printf.eprintf "wrote %s\n" path)
    series_out

(* ---- command set ------------------------------------------------------- *)

let cmd name doc term = Cmd.v (Cmd.info name ~doc) term

let fig4_cmd =
  cmd "fig4" "Unit-load scatter before/after load balancing (Gaussian)."
    Term.(const run_fig4 $ seed_arg $ nodes_arg 4096 $ sink_arg)

let fig5_cmd =
  cmd "fig5" "Load vs capacity category after LB (Gaussian)."
    Term.(const run_fig5 $ seed_arg $ nodes_arg 4096 $ sink_arg)

let fig6_cmd =
  cmd "fig6" "Load vs capacity category after LB (Pareto)."
    Term.(const run_fig6 $ seed_arg $ nodes_arg 4096 $ sink_arg)

let fig7_cmd =
  cmd "fig7" "Moved-load distance distribution and CDF on ts5k-large."
    Term.(
      const run_fig7 $ seed_arg $ graphs_arg $ nodes_arg 4096 $ csv_arg
      $ jobs_arg $ sink_arg)

let fig8_cmd =
  cmd "fig8" "Moved-load distance distribution and CDF on ts5k-small."
    Term.(
      const run_fig8 $ seed_arg $ graphs_arg $ nodes_arg 4096 $ csv_arg
      $ jobs_arg $ sink_arg)

let tvsa_cmd =
  cmd "tvsa" "VSA rounds vs network size for K = 2 and K = 8."
    Term.(const run_tvsa $ seed_arg $ jobs_arg $ sink_arg)

let baselines_cmd =
  cmd "baselines" "Compare against CFS shedding and the Rao et al. schemes."
    Term.(const run_baselines $ seed_arg $ nodes_arg 4096 $ jobs_arg $ sink_arg)

let churn_cmd =
  cmd "churn" "Self-repair: crash/join nodes, refresh the KT tree, rebalance."
    Term.(const run_churn $ seed_arg $ nodes_arg 1024 $ sink_arg)

let resilience_cmd =
  cmd "resilience"
    "Fault injection: mid-round crashes + message loss, KT repair, retries."
    Term.(const run_resilience $ seed_arg $ nodes_arg 1024 $ jobs_arg $ sink_arg)

let chaos_cmd =
  let seeds_arg =
    let doc = "Number of consecutive seeds to soak." in
    Arg.(value & opt int 64 & info [ "seeds" ] ~docv:"N" ~doc)
  in
  let rounds_arg =
    let doc = "Maximum balancing rounds per seed." in
    Arg.(value & opt int 3 & info [ "rounds" ] ~docv:"R" ~doc)
  in
  let replay_arg =
    let doc =
      "Replay a single seed verbosely (as named by a failing soak report) \
       instead of soaking."
    in
    Arg.(value & opt (some int) None & info [ "replay" ] ~docv:"SEED" ~doc)
  in
  cmd "chaos"
    "Chaos soak: per-seed randomized crash/loss/duplication/partition mixes, \
     all invariants (incl. VS conservation) checked after every round; exits \
     non-zero naming the first failing seed."
    Term.(
      const run_chaos $ seed_arg $ seeds_arg $ nodes_arg 256 $ rounds_arg
      $ replay_arg $ jobs_arg $ sink_arg)

let durability_cmd =
  cmd "durability" "Replicated-store availability and loss under churn."
    Term.(const run_durability $ seed_arg $ nodes_arg 512 $ jobs_arg $ sink_arg)

let drift_cmd =
  cmd "drift" "Periodic balancing under load drift."
    Term.(const run_drift $ seed_arg $ nodes_arg 1024 $ sink_arg)

let verify_cmd =
  cmd "verify" "Run whole-system invariant checks through LB and churn."
    Term.(const run_verify $ seed_arg $ nodes_arg 512 $ sink_arg)

let overhead_cmd =
  cmd "overhead" "Per-phase message cost of one LB round vs network size."
    Term.(const run_overhead $ seed_arg $ jobs_arg $ sink_arg)

let scale_cmd =
  let sizes_arg =
    let doc =
      "Comma-separated overlay sizes to sweep (each runs both the Gaussian \
       and the Pareto workload to convergence)."
    in
    Arg.(
      value & opt (list int) E.scale_sizes & info [ "sizes" ] ~docv:"N,.." ~doc)
  in
  let rounds_arg =
    let doc = "Maximum balancing rounds per run." in
    Arg.(value & opt int 8 & info [ "rounds" ] ~docv:"R" ~doc)
  in
  cmd "scale"
    "Scale tier: run the balancer to convergence at 32k/65k/131k nodes \
     and report rounds, residual heavies, moved load and mean transfer \
     hops."
    Term.(const run_scale $ seed_arg $ sizes_arg $ rounds_arg $ jobs_arg $ sink_arg)

let ablations_cmd =
  cmd "ablations" "Design-choice sweeps: epsilon, threshold, curve, K."
    Term.(const run_ablations $ seed_arg $ nodes_arg 2048 $ jobs_arg $ sink_arg)

let all_cmd =
  cmd "all" "Run every experiment in sequence."
    Term.(const run_all $ seed_arg $ graphs_arg $ nodes_arg 4096 $ jobs_arg $ sink_arg)

let trace_summary_cmd =
  cmd "trace-summary"
    "Render a recorded trace: per-phase span tables, point-event counts, \
     and the hop-cost distribution reconstructed from vst/transfer events."
    Term.(const run_trace_summary $ trace_file_arg)

let trace_analyze_cmd =
  let phase_arg =
    let doc = "Keep only spans named $(docv) (e.g. $(b,phase/vst))." in
    Arg.(
      value & opt (some string) None & info [ "phase" ] ~docv:"NAME" ~doc)
  in
  let round_arg =
    let doc = "Keep only balancing round $(docv)." in
    Arg.(value & opt (some int) None & info [ "round" ] ~docv:"R" ~doc)
  in
  let json_arg =
    let doc =
      "Emit the machine-readable JSONL report (byte-stable) instead of \
       tables."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  cmd "trace-analyze"
    "Reconstruct the span forest from a recorded trace and report per-round \
     critical paths and per-phase simulated-time breakdowns."
    Term.(
      const run_trace_analyze $ trace_file_arg $ phase_arg $ round_arg
      $ json_arg)

let convergence_cmd =
  let rounds_arg =
    let doc = "Maximum balancing rounds." in
    Arg.(value & opt int 10 & info [ "rounds" ] ~docv:"R" ~doc)
  in
  let epsilon_arg =
    let doc = "Relative balance slack: converged once max/avg <= 1+$(docv)." in
    Arg.(
      value & opt float 0.05 & info [ "epsilon-rel" ] ~docv:"EPS" ~doc)
  in
  let chaos_arg =
    let doc =
      "Run under the chaos fault mix derived from $(docv) (same derivation \
       as $(b,lb_sim chaos))."
    in
    Arg.(
      value & opt (some int) None & info [ "chaos-seed" ] ~docv:"SEED" ~doc)
  in
  let json_arg =
    let doc = "Emit the raw sample JSONL (byte-stable) instead of tables." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  cmd "convergence"
    "Run multi-round balancing and report the per-round load time-series \
     (max/avg utilization, Gini, overloaded fraction, cumulative moved load) \
     plus the convergence verdict."
    Term.(
      const run_convergence $ seed_arg $ nodes_arg 4096 $ rounds_arg
      $ epsilon_arg $ chaos_arg $ json_arg $ series_out_arg)

let () =
  let info =
    Cmd.info "lb_sim" ~version:"1.0.0"
      ~doc:
        "Reproduction experiments for proximity-aware load balancing in \
         structured P2P systems (Zhu & Hu, IPDPS 2004)"
  in
  let group =
    Cmd.group info
      [
        fig4_cmd;
        fig5_cmd;
        fig6_cmd;
        fig7_cmd;
        fig8_cmd;
        tvsa_cmd;
        baselines_cmd;
        churn_cmd;
        resilience_cmd;
        chaos_cmd;
        durability_cmd;
        drift_cmd;
        overhead_cmd;
        scale_cmd;
        verify_cmd;
        ablations_cmd;
        all_cmd;
        trace_summary_cmd;
        trace_analyze_cmd;
        convergence_cmd;
      ]
  in
  exit (Cmd.eval group)
