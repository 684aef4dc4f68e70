(* lb_sim — experiment driver reproducing each table/figure of
   Zhu & Hu, "Towards Efficient Load Balancing in Structured P2P
   Systems" (IPDPS 2004).  One subcommand per entry of
   P2plb.Experiments.registry, [all] for the whole suite, and the
   chaos, verify, convergence and trace tools. *)

module E = P2plb.Experiments
module Chaos = P2plb_chaos.Chaos
module Par = P2plb_sim.Par
module Obs = P2plb_obs.Obs
module Trace = P2plb_obs.Trace
module Spantree = P2plb_obs.Spantree
module Timeseries = P2plb_obs.Timeseries

open Cmdliner

(* Sizes, counts and job numbers below 1 are usage errors (exit 124),
   not exceptions from deep inside an experiment. *)
let positive =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some _ | None ->
      Error (Printf.sprintf "expected a positive integer, got %S" s)
  in
  Arg.conv' (parse, Format.pp_print_int)

(* Likewise a relative slack: a negative, infinite or NaN one is a
   usage error, not a run that dies or judges every round alike. *)
let slack =
  let parse s =
    match float_of_string_opt s with
    | Some x when Float.is_finite x && x >= 0.0 -> Ok x
    | Some _ | None ->
      Error
        (Printf.sprintf "expected a finite, non-negative number, got %S" s)
  in
  Arg.conv' (parse, Format.pp_print_float)

let seed_arg =
  let doc = "Random seed (experiments are deterministic in the seed)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let nodes_arg default =
  let doc = "Number of overlay (physical DHT) nodes." in
  Arg.(value & opt positive default & info [ "nodes"; "n" ] ~docv:"N" ~doc)

let graphs_arg =
  let doc = "Topology instances to aggregate (the paper uses 10)." in
  Arg.(
    value
    & opt positive E.defaults.E.p_graphs
    & info [ "graphs" ] ~docv:"G" ~doc)

let rounds_arg ~doc default =
  Arg.(value & opt positive default & info [ "rounds" ] ~docv:"R" ~doc)

let pool_arg =
  let doc =
    "Run independent tasks (graph instances, sweep points, fault rows, \
     chaos seeds) on $(docv) domains.  Output — tables, traces, metrics, \
     time-series — is byte-identical for every job count; the default is \
     sequential."
  in
  Term.(
    const (fun jobs -> Par.create ~jobs)
    $ Arg.(value & opt positive 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc))

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
     runs.  Read it with $(b,lb_sim trace-analyze)."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let metrics_out_arg =
  let doc =
    "Write the run's totals, read off its trace, to $(docv): each span \
     name's count and attribute totals, each point event's count and the \
     transfer hop histograms, as sorted, digest-stable $(i,name = value) \
     lines."
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

let write_out path write =
  mkdir_p (Filename.dirname path);
  write ~path;
  Printf.eprintf "wrote %s\n" path

let flush_sinks obs (trace_out, metrics_out, series_out) =
  let flush write = Option.iter (fun path -> write_out path write) in
  flush (Trace.write_jsonl (Obs.trace obs)) trace_out;
  flush (Spantree.write_totals (Obs.trace obs)) metrics_out;
  flush (Timeseries.write (Obs.series obs)) series_out

(* Runs [f] with an observability bundle when any sink is requested
   and flushes the sinks afterwards, even if [f] raises.  [f] returns
   the exit status, and a failing one exits only once the sinks are
   written: [exit] inside [f] would skip the flush, since [Stdlib.exit]
   raises nothing for [Fun.protect] to see. *)
let sinked f sinks =
  let status =
    match sinks with
    | None, None, None -> f None
    | _ ->
      let obs = Obs.create () in
      Fun.protect
        ~finally:(fun () -> flush_sinks obs sinks)
        (fun () -> f (Some obs))
  in
  if status <> 0 then exit status

(* A size the topology cannot hold is a usage error too, though only
   a drawn topology knows its stub-vertex count: [f]'s build reports
   it, and the command prints one line and exits 124. *)
let fits_topology name f =
  match f () with
  | status -> status
  | exception P2plb.Scenario.Too_few_stubs { stubs; n_nodes } ->
    Printf.eprintf
      "lb_sim %s: --nodes %d is more than the topology's %d stub vertices\n"
      name n_nodes stubs;
    Cmd.Exit.cli_error

(* ---- the registry's subcommands ----------------------------------------- *)

(* The flags of an entry are exactly its size knobs: --nodes, --graphs
   and --csv, or --sizes and --rounds; --jobs when it is pooled. *)
let entry_cmd (e : E.entry) =
  let base =
    Term.(const (fun p_seed -> { E.defaults with p_seed }) $ seed_arg)
  in
  let params =
    match e.E.size with
    | E.Unsized -> base
    | E.Nodes d ->
      Term.(const (fun p p_nodes -> { p with E.p_nodes }) $ base $ nodes_arg d)
    | E.Nodes_graphs d ->
      Term.(
        const (fun p p_nodes p_graphs -> { p with E.p_nodes; p_graphs })
        $ base $ nodes_arg d $ graphs_arg)
    | E.Sizes ->
      let sizes_arg =
        let doc =
          "Comma-separated overlay sizes to sweep (each runs both the \
           Gaussian and the Pareto workload to convergence)."
        in
        Arg.(
          value
          & opt (list positive) E.defaults.E.p_sizes
          & info [ "sizes" ] ~docv:"N,.." ~doc)
      in
      Term.(
        const (fun p p_sizes p_rounds -> { p with E.p_sizes; p_rounds })
        $ base $ sizes_arg
        $ rounds_arg ~doc:"Maximum balancing rounds per run."
            E.defaults.E.p_rounds)
  in
  let pool = if e.E.pooled then pool_arg else Term.const Par.sequential in
  let csv =
    match e.E.size with
    | E.Nodes_graphs _ -> csv_arg
    | E.Unsized | E.Nodes _ | E.Sizes -> Term.const None
  in
  let run params pool csv sinks =
    sinked
      (fun obs ->
        fits_topology e.E.name @@ fun () ->
        let r = e.E.run ~pool ?obs params in
        print_string r.E.text;
        Option.iter
          (fun dir ->
            List.iter
              (fun (stem, contents) ->
                write_out
                  (Filename.concat dir (stem ^ ".csv"))
                  (fun ~path ->
                    Out_channel.with_open_text path (fun oc ->
                        output_string oc contents)))
              r.E.csv)
          csv;
        0)
      sinks
  in
  Cmd.v
    (Cmd.info e.E.name ~doc:e.E.doc)
    Term.(const run $ params $ pool $ csv $ sink_arg)

let all =
  let run p_seed p_graphs p_nodes pool sinks =
    let p = { E.defaults with p_seed; p_graphs; p_nodes } in
    sinked
      (fun obs ->
        fits_topology "all" @@ fun () ->
        List.iteri
          (fun i e ->
            if i > 0 then print_newline ();
            print_string (e.E.run ~pool ?obs (E.suite_params p e)).E.text)
          E.suite;
        0)
      sinks
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Run every experiment in sequence.")
    Term.(
      const run $ seed_arg $ graphs_arg
      $ nodes_arg E.defaults.E.p_nodes
      $ pool_arg $ sink_arg)

(* ---- whole-system checks ------------------------------------------------ *)

let verify =
  let run seed n_nodes sinks =
    sinked
      (fun obs ->
        fits_topology "verify" @@ fun () ->
        let module Scenario = P2plb.Scenario in
        let module Ktree = P2plb_ktree.Ktree in
        let module Dht = P2plb_chord.Dht in
        let s = Scenario.build ~seed { Scenario.default with n_nodes } in
        let total = Dht.total_load s.Scenario.dht in
        let tree = Ktree.build ~k:2 s.Scenario.dht in
        let exception Check_failed in
        let step name result =
          match result with
          | Ok () -> Printf.printf "%-40s ok\n" name
          | Error e ->
            Printf.printf "%-40s FAILED: %s\n" name e;
            raise Check_failed
        in
        let checks () =
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
        in
        match checks () with () -> 0 | exception Check_failed -> 1)
      sinks
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Run whole-system invariant checks through LB and churn.")
    Term.(const run $ seed_arg $ nodes_arg 512 $ sink_arg)

let chaos =
  let seeds_arg =
    let doc = "Number of consecutive seeds to soak." in
    Arg.(value & opt positive 64 & info [ "seeds" ] ~docv:"N" ~doc)
  in
  let replay_arg =
    let doc =
      "Replay a single seed verbosely (as named by a failing soak report) \
       instead of soaking."
    in
    Arg.(value & opt (some int) None & info [ "replay" ] ~docv:"SEED" ~doc)
  in
  let run base_seed seeds n_nodes max_rounds replay pool sinks =
    sinked
      (fun obs ->
        fits_topology "chaos" @@ fun () ->
        match replay with
        | Some seed ->
          print_string (Chaos.replay ?obs ~n_nodes ~max_rounds ~seed ());
          0
        | None ->
          let r =
            Chaos.soak ~pool ?obs ~n_nodes ~max_rounds ~seeds ~base_seed ()
          in
          print_string (Chaos.render r);
          if Chaos.failed r then 1 else 0)
      sinks
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Chaos soak: per-seed randomized crash/loss/duplication/partition \
          mixes, all invariants (incl. VS conservation) checked after every \
          round; exits non-zero naming the first failing seed.")
    Term.(
      const run $ seed_arg $ seeds_arg $ nodes_arg 256
      $ rounds_arg ~doc:"Maximum balancing rounds per seed." 3
      $ replay_arg $ pool_arg $ sink_arg)

let convergence =
  let epsilon_arg =
    let doc = "Relative balance slack: converged once max/avg <= 1+$(docv)." in
    Arg.(
      value & opt slack 0.05 & info [ "epsilon-rel" ] ~docv:"EPS" ~doc)
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
  let run seed n_nodes max_rounds epsilon_rel chaos_seed json series_out =
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
    flush_sinks obs (None, None, series_out)
  in
  Cmd.v
    (Cmd.info "convergence"
       ~doc:
         "Run multi-round balancing and report the per-round load \
          time-series (max/avg utilization, Gini, overloaded fraction, \
          cumulative moved load) plus the convergence verdict.")
    Term.(
      const run $ seed_arg $ nodes_arg 4096
      $ rounds_arg ~doc:"Maximum balancing rounds." 10
      $ epsilon_arg $ chaos_arg $ json_arg $ series_out_arg)

(* ---- trace analytics ---------------------------------------------------- *)

(* A plain [string] positional, not cmdliner's [file] converter: the
   converter rejects a missing path with its own exit code (124) before
   our code runs, while the contract here is exit 1 with a one-line
   diagnostic for missing and truncated inputs alike. *)
let trace_file_arg =
  let doc = "Trace to render (JSONL, as written by $(b,--trace-out))." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

let trace_analyze =
  let phase_arg =
    let doc = "Keep only spans named $(docv) (e.g. $(b,phase/vst))." in
    Arg.(
      value & opt (some string) None & info [ "phase" ] ~docv:"NAME" ~doc)
  in
  let round_arg =
    let doc =
      "Keep only balancing round $(docv), the round whose simulated start \
       time, rounded down, is $(docv).  On a trace of several runs \
       laid end to end, rounds are numbered across all of them."
    in
    Arg.(value & opt (some int) None & info [ "round" ] ~docv:"R" ~doc)
  in
  let json_arg =
    let doc =
      "Emit the machine-readable JSONL report (byte-stable) instead of \
       tables."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run file phase round json =
    match Result.bind (Trace.load_jsonl file) Spantree.of_events with
    | Error e ->
      prerr_endline ("trace-analyze: " ^ e);
      exit 1
    | Ok t ->
      if json then print_string (Spantree.to_jsonl ?phase ?round t)
      else print_string (Spantree.render ?phase ?round t)
  in
  Cmd.v
    (Cmd.info "trace-analyze"
       ~doc:
         "Reconstruct the span forest from a recorded trace and report \
          per-round critical paths and per-phase simulated-time \
          breakdowns, whole-trace span totals, point-event counts, and the \
          hop-cost distribution reconstructed from vst/transfer events.")
    Term.(const run $ trace_file_arg $ phase_arg $ round_arg $ json_arg)

let () =
  let info =
    Cmd.info "lb_sim" ~version:"1.0.0"
      ~doc:
        "Reproduction experiments for proximity-aware load balancing in \
         structured P2P systems (Zhu & Hu, IPDPS 2004)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          (List.map entry_cmd E.registry
          @ [ all; chaos; verify; convergence; trace_analyze ])))
