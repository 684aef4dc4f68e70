(* Bench harness.

   Two parts, one exe:

   1. {b Figure regeneration} — for every table/figure of the paper's
      evaluation (Figs. 4–8, the T-vsa timing claim, plus the baseline
      and ablation tables), print the same rows/series the paper
      reports, via {!P2plb.Experiments}.  Scale is controlled by the
      [P2PLB_NODES] / [P2PLB_GRAPHS] environment variables (defaults
      2048 / 3 keep a full run to minutes; the paper's scale is
      4096 / 10 — see EXPERIMENTS.md for full-scale numbers).

   2. {b Bechamel micro-benchmarks} — one [Test.make] per
      figure/table, timing the computational kernel that experiment
      exercises (tree construction + sweeps for T-vsa, a full balance
      round for Figs. 4–6, the aware/ignorant VSA for Figs. 7–8,
      pairing and the curve encodings for the ablations). *)

module E = P2plb.Experiments
module Scenario = P2plb.Scenario
module Controller = P2plb.Controller
module Pairing = P2plb.Pairing
module Types = P2plb.Types
module Dht = P2plb_chord.Dht
module Ktree = P2plb_ktree.Ktree
module Graph = P2plb_topology.Graph
module TS = P2plb_topology.Transit_stub
module Landmark = P2plb_landmark.Landmark
module Hilbert = P2plb_hilbert.Hilbert
module Workload = P2plb_workload.Workload
module Prng = P2plb_prng.Prng
module Par = P2plb_sim.Par

(* Raw monotonic clock (ns) from bechamel's stubs; aliased before
   [open Toolkit] shadows the name with the MEASURE wrapper. *)
module Mclock = Monotonic_clock
module Obs = P2plb_obs.Obs
module Registry = P2plb_obs.Registry
module Benchgate = P2plb_obs.Benchgate
module Multiround = P2plb.Multiround
module Histogram = P2plb_metrics.Histogram
module Report = P2plb_metrics.Report

let env_int name default =
  match Sys.getenv_opt name with
  | Some v -> ( match int_of_string_opt v with Some i -> i | None -> default)
  | None -> default

let n_nodes = env_int "P2PLB_NODES" 2048
let graphs = env_int "P2PLB_GRAPHS" 3
let seed = env_int "P2PLB_SEED" 1

(* --jobs N / -j N: domain count for the experiments that fan their
   independent tasks out over Par.run.  Every table and the sim digest
   are byte-identical for any job count; only wall clock changes. *)
let jobs =
  let rec from_argv i =
    if i + 1 >= Array.length Sys.argv then env_int "P2PLB_JOBS" 1
    else if
      String.equal Sys.argv.(i) "--jobs" || String.equal Sys.argv.(i) "-j"
    then
      match int_of_string_opt Sys.argv.(i + 1) with
      | Some j when j >= 1 -> j
      | Some _ | None -> 1
    else from_argv (i + 1)
  in
  from_argv 1

let pool = Par.create ~jobs

let rev =
  match Sys.getenv_opt "P2PLB_REV" with Some r -> r | None -> "dev"

let section title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '=')

(* Every figure run gets its own observability bundle; the registries
   are summarised in one per-experiment table after the figures, and
   each run's cpu/alloc figures plus the simulation-derived convergence
   metrics land in BENCH_<rev>.json (Benchgate).  The Sys.time reads
   below are the repo's only wall-clock taint: they never feed back
   into a simulation, only into the bench record. *)
let metrics_acc : (string * Obs.t) list ref = ref []
let experiments_acc : Benchgate.experiment list ref = ref []
let bench_acc : Benchgate.bench list ref = ref []

let observed name f =
  let obs = Obs.create () in
  metrics_acc := (name, obs) :: !metrics_acc;
  let a0 = Gc.allocated_bytes () in
  (* p2plint: allow-impure — bench harness CPU timing, confined to BENCH_<rev>.json *)
  let t0 = Sys.time () in
  let r = f obs in
  (* p2plint: allow-impure — bench harness CPU timing, confined to BENCH_<rev>.json *)
  let cpu = Sys.time () -. t0 in
  let alloc = Gc.allocated_bytes () -. a0 in
  experiments_acc :=
    {
      Benchgate.e_name = name;
      e_cpu_s = cpu;
      e_alloc_bytes = alloc;
      e_sim = Benchgate.sim_of_obs obs;
    }
    :: !experiments_acc;
  r

let metrics_table () =
  let row (name, obs) =
    let m = Obs.metrics obs in
    let c k = Option.value ~default:0 (Registry.find_counter m k) in
    let events =
      int_of_float
        (Option.value ~default:0.0 (Registry.find_gauge m "engine/processed"))
    in
    let pct p =
      match Registry.find_histogram m "vst/hop_cost" with
      | None -> "-"
      | Some h -> (
        match Histogram.percentile_bin h p with
        | -1 -> "-"
        | b -> string_of_int b)
    in
    [
      name;
      string_of_int events;
      string_of_int (c "round/messages");
      string_of_int (c "fault/retry");
      string_of_int (c "vst/transfers");
      pct 50.0;
      pct 99.0;
    ]
  in
  Report.table
    ~title:
      "Per-experiment registry metrics (events = engine events processed, \
       fault-driven runs only; hop-cost percentiles in underlay hops)"
    ~header:
      [
        "experiment"; "events"; "messages"; "retries"; "transfers"; "hop p50";
        "hop p99";
      ]
    (List.map row (List.rev !metrics_acc))

let figures () =
  section "Figure 4 (unit load before/after, Gaussian)";
  observed "fig4" (fun obs ->
      print_string (E.render_fig4 (E.fig4 ~obs ~seed ~n_nodes ())));
  section "Figure 5 (load vs capacity, Gaussian)";
  observed "fig5" (fun obs ->
      print_string
        (E.render_capacity_alignment
           ~title:"load/capacity alignment after LB (Gaussian)"
           (E.fig5 ~obs ~seed ~n_nodes ())));
  section "Figure 6 (load vs capacity, Pareto)";
  observed "fig6" (fun obs ->
      print_string
        (E.render_capacity_alignment
           ~title:"load/capacity alignment after LB (Pareto 1.5)"
           (E.fig6 ~obs ~seed ~n_nodes ())));
  section "Figure 7 (moved load vs distance, ts5k-large)";
  observed "fig7" (fun obs ->
      print_string
        (E.render_proximity
           ~title:
             "paper: aware 67%@2 hops, 86%@10; ignorant 13%@10 (10 graphs, \
              4096 nodes)"
           (E.fig7 ~pool ~obs ~seed ~graphs ~n_nodes ())));
  section "Figure 8 (moved load vs distance, ts5k-small)";
  observed "fig8" (fun obs ->
      print_string
        (E.render_proximity
           ~title:"paper: aware well ahead of ignorant on a scattered overlay"
           (E.fig8 ~pool ~obs ~seed ~graphs ~n_nodes ())));
  section "T-vsa (VSA rounds vs N, K = 2 and 8)";
  observed "tvsa" (fun obs ->
      print_string
        (E.render_tvsa
           [ E.tvsa ~pool ~obs ~seed ~k:2 (); E.tvsa ~pool ~obs ~seed ~k:8 () ]));
  section "Baselines (CFS, Rao et al.)";
  observed "baselines" (fun obs ->
      print_string
        (E.render_baselines (E.baselines ~pool ~obs ~seed ~n_nodes ())));
  section "Churn / self-repair";
  observed "churn" (fun obs ->
      print_string
        (E.render_churn (E.churn ~obs ~seed ~n_nodes:(Int.min n_nodes 1024) ())));
  section "Mid-round churn resilience (fault injection)";
  observed "resilience" (fun obs ->
      print_string
        (E.render_resilience
           (E.resilience ~pool ~obs ~seed ~n_nodes:(Int.min n_nodes 1024) ())));
  section "Replicated-store durability under churn";
  print_string (E.render_durability (E.durability ~pool ~seed ()));
  section "Periodic balancing under load drift";
  observed "drift" (fun obs ->
      print_string (E.render_load_drift (E.load_drift ~obs ~seed ())));
  section "Message overhead per phase";
  observed "overhead" (fun obs ->
      print_string (E.render_overhead (E.overhead ~pool ~obs ~seed ())));
  section "Ablations";
  observed "ablations" (fun obs ->
  print_string
    (E.render_sweep ~title:"epsilon_rel sweep"
       ~header:[ "epsilon_rel"; "heavy after"; "moved" ]
       (List.map
          (fun (e, h, m) ->
            [
              Printf.sprintf "%.2f" e;
              string_of_int h;
              Printf.sprintf "%.1f%%" (100.0 *. m);
            ])
          (E.ablation_epsilon ~pool ~obs ~seed ~n_nodes:(Int.min n_nodes 2048) ())));
  print_newline ();
  print_string
    (E.render_sweep ~title:"rendezvous threshold sweep"
       ~header:[ "threshold"; "CDF@2"; "CDF@10" ]
       (List.map
          (fun (t, a, b) ->
            [ string_of_int t; Printf.sprintf "%.3f" a; Printf.sprintf "%.3f" b ])
          (E.ablation_threshold ~pool ~obs ~seed ~n_nodes:(Int.min n_nodes 2048) ())));
  print_newline ();
  print_string
    (E.render_sweep ~title:"space-filling curve sweep"
       ~header:[ "curve"; "CDF@2"; "CDF@10" ]
       (List.map
          (fun (c, a, b) ->
            [ c; Printf.sprintf "%.3f" a; Printf.sprintf "%.3f" b ])
          (E.ablation_curve ~pool ~obs ~seed ~n_nodes:(Int.min n_nodes 2048) ())));
  print_newline ();
  print_string
    (E.render_sweep ~title:"K-nary degree sweep"
       ~header:[ "K"; "depth"; "KT nodes"; "messages" ]
       (List.map
          (fun (k, d, n, m) ->
            [ string_of_int k; string_of_int d; string_of_int n; string_of_int m ])
          (E.ablation_k ~pool ~obs ~seed ~n_nodes:(Int.min n_nodes 2048) ())));
  print_newline ();
  print_string
    (E.render_sweep ~title:"landmark count sweep"
       ~header:[ "m"; "order"; "CDF@2"; "CDF@10" ]
       (List.map
          (fun (m, o, a, b) ->
            [
              string_of_int m;
              string_of_int o;
              Printf.sprintf "%.3f" a;
              Printf.sprintf "%.3f" b;
            ])
          (E.ablation_landmarks ~pool ~obs ~seed ~n_nodes:(Int.min n_nodes 2048) ()))));
  section "Per-experiment registry metrics";
  print_string (metrics_table ())

(* ---- bechamel micro-benchmarks ----------------------------------------- *)

open Bechamel
open Toolkit

(* Shared small fixtures so each timed closure is pure computation. *)
let bench_nodes = 512

let fixture =
  lazy
    (let config =
       {
         Scenario.default with
         n_nodes = bench_nodes;
         topology = { TS.ts5k_large with TS.mean_stub_size = 15 };
       }
     in
     Scenario.build ~seed:123 config)

let fresh_scenario () =
  let config =
    {
      Scenario.default with
      n_nodes = bench_nodes;
      topology = { TS.ts5k_large with TS.mean_stub_size = 15 };
    }
  in
  Scenario.build ~seed:123 config

let ts5k_large = lazy (TS.generate (Prng.create ~seed:8) TS.ts5k_large)

let pairing_fixture =
  lazy
    (let rng = Prng.create ~seed:5 in
     let sheds =
       List.init 500 (fun i ->
           Types.
             {
               vs_load = Prng.unit_float rng;
               vs_id = i;
               heavy_node = i;
             })
     in
     let lights =
       List.init 500 (fun i ->
           Types.{ deficit = 2.0 *. Prng.unit_float rng; light_node = 1000 + i })
     in
     Pairing.of_entries sheds lights)

let coords15 =
  let rng = Prng.create ~seed:6 in
  Array.init 1000 (fun _ -> Array.init 15 (fun _ -> Prng.int rng 4))

let tests =
  [
    (* T-vsa: the aggregation infrastructure itself. *)
    Test.make ~name:"tvsa/ktree_build_k2"
      (Staged.stage (fun () ->
           let s = Lazy.force fixture in
           ignore (Ktree.build ~k:2 s.Scenario.dht)));
    Test.make ~name:"tvsa/ktree_build_k8"
      (Staged.stage (fun () ->
           let s = Lazy.force fixture in
           ignore (Ktree.build ~k:8 s.Scenario.dht)));
    Test.make ~name:"tvsa/ktree_sweeps_k2"
      (Staged.stage
         (let s = Lazy.force fixture in
          let tree = Ktree.build ~k:2 s.Scenario.dht in
          fun () ->
            ignore
              (Ktree.sweep_up tree
                 ~at_leaf:(fun _ -> 1)
                 ~empty:0 ~merge:( + )
                 ~at_node:(fun _ n -> n));
            Ktree.sweep_down tree ~at_root:0
              ~split:(fun _ v -> v)
              ~at_leaf:(fun _ _ -> ())));
    Test.make ~name:"tvsa/lbi_round"
      (Staged.stage
         (let s = Lazy.force fixture in
          let tree = Ktree.build ~k:2 s.Scenario.dht in
          fun () -> ignore (P2plb.Lbi.run ~rng:s.Scenario.rng tree s.Scenario.dht)));
    (* Figs. 4-6: a full balance round (Gaussian / Pareto loads). *)
    Test.make ~name:"fig4_5/balance_round_gaussian"
      (Staged.stage (fun () -> ignore (Controller.run (fresh_scenario ()))));
    Test.make ~name:"fig6/balance_round_pareto"
      (Staged.stage (fun () ->
           let config =
             {
               Scenario.default with
               n_nodes = bench_nodes;
               workload = Workload.default_pareto;
               topology = { TS.ts5k_large with TS.mean_stub_size = 15 };
             }
           in
           ignore (Controller.run (Scenario.build ~seed:123 config))));
    (* Figs. 7-8: aware vs ignorant VSA. *)
    Test.make ~name:"fig7/vsa_aware"
      (Staged.stage (fun () ->
           let s = fresh_scenario () in
           let cc = { Controller.default with Controller.proximity = true } in
           ignore (Controller.run ~config:cc s)));
    Test.make ~name:"fig7/vsa_ignorant"
      (Staged.stage (fun () ->
           let s = fresh_scenario () in
           let cc = { Controller.default with Controller.proximity = false } in
           ignore (Controller.run ~config:cc s)));
    (* Ablation kernels. *)
    Test.make ~name:"kernel/pairing_500x500"
      (Staged.stage (fun () ->
           ignore (Pairing.pair ~l_min:0.001 (Lazy.force pairing_fixture))));
    Test.make ~name:"kernel/hilbert_encode_15d"
      (Staged.stage (fun () ->
           Array.iter
             (fun c -> ignore (Hilbert.encode ~dims:15 ~order:2 c))
             coords15));
    Test.make ~name:"kernel/chord_lookup"
      (Staged.stage
         (let s = Lazy.force fixture in
          let dht = s.Scenario.dht in
          let rng = Prng.create ~seed:7 in
          let point () = Prng.int rng P2plb_idspace.Id.space_size in
          fun () ->
            (* Sources as well as keys spread over the whole ring. *)
            let from = (Dht.owner_of_key dht (point ())).Dht.vs_id in
            ignore (Dht.lookup dht ~from ~key:(point ()))));
    Test.make ~name:"kernel/dijkstra_ts5k"
      (Staged.stage
         (let s = Lazy.force fixture in
          let g = s.Scenario.topo.TS.graph in
          fun () -> ignore (Graph.dijkstra g ~src:0)));
    (* Scenario build: the paper's underlay and its landmark space. *)
    Test.make ~name:"kernel/ts5k_generate"
      (Staged.stage (fun () ->
           ignore (TS.generate (Prng.create ~seed:8) TS.ts5k_large)));
    Test.make ~name:"kernel/landmark_space_ts5k"
      (Staged.stage
         (let g = (Lazy.force ts5k_large).TS.latency_graph in
          let landmarks =
            Landmark.select_spread (Prng.create ~seed:9) g
              ~m:Scenario.default.Scenario.landmark_m
          in
          fun () -> ignore (Landmark.make_space g ~landmarks)));
  ]

let run_bechamel () =
  section "Bechamel micro-benchmarks (ns/run)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:None
      ~stabilize:false ()
  in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"p2plb" (List.rev tests))
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let est =
        match Analyze.OLS.estimates ols_result with
        | Some (t :: _) -> t
        | _ -> nan
      in
      rows := (name, est) :: !rows)
    results;
  let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) !rows in
  bench_acc :=
    List.filter_map
      (fun (name, ns) ->
        if Float.is_nan ns then None
        else Some { Benchgate.b_name = name; b_ns = ns })
      sorted;
  List.iter
    (fun (name, ns) ->
      if Float.is_nan ns then Printf.printf "%-36s (no estimate)\n" name
      else if ns > 1e9 then Printf.printf "%-36s %8.2f s/run\n" name (ns /. 1e9)
      else if ns > 1e6 then Printf.printf "%-36s %8.2f ms/run\n" name (ns /. 1e6)
      else if ns > 1e3 then Printf.printf "%-36s %8.2f us/run\n" name (ns /. 1e3)
      else Printf.printf "%-36s %8.2f ns/run\n" name ns)
    sorted

(* ---- smoke mode & the bench record ------------------------------------- *)

(* One tiny end-to-end experiment (multi-round balancing on a small
   ring) — enough to populate every field of the bench record so
   @bench-smoke can validate the schema and pin the sim digest across
   two runs without paying for the full figure sweep. *)
let smoke_nodes = env_int "P2PLB_SMOKE_NODES" 256

(* Scale-tier rows (--scale): one observed row per size, covering the
   Gaussian + Pareto convergence pair of Experiments.scale_run.  The
   default gate size is the smallest tier (32768) so @bench-gate stays
   minutes, not hours; P2PLB_SCALE_NODES (comma-separated) widens it. *)
let scale_sizes =
  match Sys.getenv_opt "P2PLB_SCALE_NODES" with
  | None -> [ 32768 ]
  | Some s ->
    List.filter_map int_of_string_opt (String.split_on_char ',' s)

let scale () =
  List.iter
    (fun n ->
      section (Printf.sprintf "Scale tier (%d nodes, Gaussian + Pareto)" n);
      observed
        (Printf.sprintf "scale/%d" n)
        (fun obs ->
          print_string
            (E.render_scale (E.scale_run ~pool ~obs ~seed ~sizes:[ n ] ()))))
    scale_sizes

let smoke () =
  section (Printf.sprintf "Smoke (multi-round convergence, %d nodes)" smoke_nodes);
  observed "smoke/convergence" (fun obs ->
      let s =
        Scenario.build ~seed { Scenario.default with n_nodes = smoke_nodes }
      in
      let r = Multiround.run ~obs ~max_rounds:5 s in
      Printf.printf "rounds=%d converged=%b moved=%.4g\n"
        (List.length r.Multiround.rounds)
        r.Multiround.converged r.Multiround.total_moved)

(* Wall clock of the experiment phase (monotonic, ns).  Together with
   the per-experiment cpu totals this yields the parallel-utilisation
   figure recorded as "speedup": total cpu / wall — ~1.0 sequential,
   approaching --jobs when the domains run on real cores.  Wall-clock
   tainted like cpu/alloc; confined to the bench record and excluded
   from the sim digest and the regression gate. *)
let wall_ns : int64 ref = ref 0L

let walled f =
  let t0 = Mclock.now () in
  let r = f () in
  wall_ns := Int64.add !wall_ns (Int64.sub (Mclock.now ()) t0);
  r

let emit_json ~smoke path =
  let wall_s = Int64.to_float !wall_ns /. 1e9 in
  let cpu_total =
    List.fold_left
      (fun acc e -> acc +. e.Benchgate.e_cpu_s)
      0.0 !experiments_acc
  in
  let speedup =
    if Float.compare wall_s 1e-9 > 0 then cpu_total /. wall_s else 1.0
  in
  let file =
    {
      Benchgate.f_meta =
        {
          Benchgate.m_schema = Benchgate.schema_version;
          m_rev = rev;
          m_nodes = (if smoke then smoke_nodes else n_nodes);
          m_graphs = graphs;
          m_seed = seed;
          m_smoke = smoke;
          m_jobs = jobs;
          m_wall_s = wall_s;
          m_speedup = speedup;
        };
      f_experiments = List.rev !experiments_acc;
      f_benches = !bench_acc;
    }
  in
  Benchgate.write file ~path;
  Printf.printf
    "\nwrote %s (%d experiment(s), %d bench(es), jobs %d, wall %.2fs, \
     speedup %.2fx, sim digest %s)\n"
    path
    (List.length file.Benchgate.f_experiments)
    (List.length file.Benchgate.f_benches)
    jobs wall_s speedup
    (Benchgate.sim_digest file)

(* Value-taking flag: "--json-out PATH"; flags: --smoke, --no-json. *)
let arg_value name =
  let rec go i =
    if i + 1 >= Array.length Sys.argv then None
    else if String.equal Sys.argv.(i) name then Some Sys.argv.(i + 1)
    else go (i + 1)
  in
  go 1

let () =
  let flag name = Array.exists (String.equal name) Sys.argv in
  let skip_figures = flag "--bench-only" in
  let skip_bench = flag "--figures-only" in
  let smoke_only = flag "--smoke" in
  let with_scale = flag "--scale" in
  let no_json = flag "--no-json" in
  let json_path =
    match arg_value "--json-out" with
    | Some p -> p
    | None -> Printf.sprintf "BENCH_%s.json" rev
  in
  Printf.printf
    "p2plb bench harness — nodes=%d graphs=%d seed=%d jobs=%d (override \
     with P2PLB_NODES / P2PLB_GRAPHS / P2PLB_SEED / --jobs)\n"
    n_nodes graphs seed jobs;
  if smoke_only then walled smoke
  else if not with_scale then begin
    if not skip_figures then walled figures;
    if not skip_bench then run_bechamel ()
  end;
  if with_scale then walled scale;
  if not no_json then emit_json ~smoke:smoke_only json_path
