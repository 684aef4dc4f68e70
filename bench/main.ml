(* Bench harness.

   Two parts, one exe:

   1. {b Figure regeneration} — runs every experiment of
      {!P2plb.Experiments.suite} (Figs. 4–8, the T-vsa timing claim,
      the baselines, churn, resilience, overhead, durability, drift
      and the ablations) once, observed, and prints its report.  Scale
      is controlled by the [P2PLB_NODES] / [P2PLB_GRAPHS] environment
      variables (defaults 2048 / 3 keep a full run to minutes; the
      paper's scale is 4096 / 10 — see EXPERIMENTS.md for full-scale
      numbers).

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
module Faults = P2plb_sim.Faults

(* Raw monotonic clock (ns) from bechamel's stubs; aliased before
   [open Toolkit] shadows the name with the MEASURE wrapper. *)
module Mclock = Monotonic_clock
module Obs = P2plb_obs.Obs
module Registry = P2plb_obs.Registry
module Benchgate = P2plb_benchkit.Benchgate
module Multiround = P2plb.Multiround
module Histogram = P2plb_metrics.Histogram
module Report = P2plb_metrics.Report

(* Malformed input is an error, never a silent default. *)
let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("bench: " ^ m);
      exit 2)
    fmt

let int_of ~positive what v =
  match int_of_string_opt v with
  | Some i when i >= 1 || not positive -> i
  | Some _ | None ->
    fail "%s: expected %s, got %S" what
      (if positive then "a positive integer" else "an integer")
      v

let env_int ?(positive = true) name default =
  match Sys.getenv_opt name with
  | Some v -> int_of ~positive name v
  | None -> default

let n_nodes = env_int "P2PLB_NODES" 2048
let graphs = env_int "P2PLB_GRAPHS" 3
let seed = env_int ~positive:false "P2PLB_SEED" 1

(* Value of a "--name VALUE" argument. *)
let arg_value names =
  let rec go i =
    if i >= Array.length Sys.argv then None
    else if List.mem Sys.argv.(i) names then
      if i + 1 < Array.length Sys.argv then Some Sys.argv.(i + 1)
      else fail "%s needs a value" Sys.argv.(i)
    else go (i + 1)
  in
  go 1

let usage =
  "usage: bench/main.exe [FLAG]...\n\
   \  --smoke           one small multi-round run only\n\
   \  --scale           the scale-tier rows only\n\
   \  --bench-only      skip the figure regeneration\n\
   \  --figures-only    skip the bechamel micro-benchmarks\n\
   \  --no-json         write no bench record\n\
   \  --json-out FILE   bench record path (default BENCH_<rev>.json)\n\
   \  --jobs N, -j N    domains for Par-parallel experiments\n\
   \  --help            print this list and exit\n"

(* Every argument must be a known flag or a value after one: [--help]
   prints them and exits 0, anything else exits 2. *)
let () =
  let rec go i =
    if i < Array.length Sys.argv then
      match Sys.argv.(i) with
      | "--help" ->
        print_string usage;
        exit 0
      | "--smoke" | "--scale" | "--bench-only" | "--figures-only" | "--no-json"
        ->
        go (i + 1)
      | "--json-out" | "--jobs" | "-j" -> go (i + 2)
      | a ->
        prerr_string ("bench: unknown argument " ^ a ^ "\n" ^ usage);
        exit 2
  in
  go 1

(* --jobs N / -j N: domain count for the experiments that fan their
   independent tasks out over Par.run.  Every table and the sim digest
   are byte-identical for any job count; only wall clock changes. *)
let jobs =
  match arg_value [ "--jobs"; "-j" ] with
  | Some v -> int_of ~positive:true "--jobs" v
  | None -> 1

let pool = Par.create ~jobs

let rev =
  match Sys.getenv_opt "P2PLB_REV" with Some r -> r | None -> "dev"

let section title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '=')

(* Every figure run gets its own observability bundle; the registries
   are summarised in one per-experiment table after the figures, and
   each run's cpu/alloc figures plus the simulation-derived convergence
   metrics land in BENCH_<rev>.json (Benchgate.observe). *)
let metrics_acc : (string * Obs.t) list ref = ref []
let experiments_acc : Benchgate.experiment list ref = ref []
let bench_acc : Benchgate.bench list ref = ref []

let observed name f =
  let obs = Obs.create () in
  metrics_acc := (name, obs) :: !metrics_acc;
  experiments_acc :=
    Benchgate.observe name obs (fun () -> f obs) :: !experiments_acc

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
  let p =
    { E.defaults with E.p_seed = seed; p_nodes = n_nodes; p_graphs = graphs }
  in
  List.iter
    (fun (e : E.entry) ->
      section (Printf.sprintf "%s: %s" e.E.name e.E.doc);
      observed e.E.name (fun obs ->
          print_string (e.E.run ~pool ~obs (E.suite_params p e)).E.text))
    E.suite;
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
          let every_slot = Array.init (Ktree.n_leaf_slots tree) Fun.id in
          (* LBI's dissemination: one send per leaf under a plan. *)
          let plan = Faults.create ~seed:0 Faults.none in
          fun () ->
            ignore
              (Ktree.sweep tree every_slot ~empty:0
                 ~at_leaf:(fun ~slot:_ ~depth:_ -> 1)
                 ~merge:( + )
                 ~lift:(fun ~hi:_ ~lo:_ n -> n));
            Ktree.broadcast tree;
            for _ = 1 to Ktree.n_leaves tree do
              ignore (Faults.send plan)
            done));
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
    (* The same at scale_pareto's ring size: 4096 nodes x 5 VSs. *)
    Test.make ~name:"kernel/chord_lookup_4096x5"
      (Staged.stage
         (let dht : unit Dht.t = Dht.create ~seed:10 in
          Dht.join_all dht (Array.init 4096 (fun i -> (1.0, i))) ~n_vs:5;
          let rng = Prng.create ~seed:7 in
          let point () = Prng.int rng P2plb_idspace.Id.space_size in
          fun () ->
            let from = (Dht.owner_of_key dht (point ())).Dht.vs_id in
            ignore (Dht.lookup dht ~from ~key:(point ()))));
    (* KT upkeep after churn: 8% of 256 nodes x 5 VSs crash, then
       repair and refresh walk a copy of the tree built before. *)
    Test.make ~name:"kernel/kt_upkeep_1280"
      (Staged.stage
         (let dht : unit Dht.t = Dht.create ~seed:12 in
          Dht.join_all dht (Array.init 256 (fun i -> (1.0, i))) ~n_vs:5;
          let tree = Ktree.build ~k:2 dht in
          let order = Array.init 256 Fun.id in
          Prng.shuffle (Prng.create ~seed:13) order;
          for i = 0 to (256 * 8 / 100) - 1 do
            Dht.crash dht order.(i)
          done;
          fun () ->
            let t = Ktree.copy tree in
            ignore (Ktree.repair t dht);
            Ktree.refresh t dht));
    Test.make ~name:"kernel/dijkstra_ts5k"
      (Staged.stage
         (let s = Lazy.force fixture in
          let g = s.Scenario.topo.TS.graph in
          fun () -> ignore (Graph.dijkstra g ~src:0)));
    (* Transfer pricing as VST does it: a fresh oracle on the paper's
       underlay, its bridge decomposition, then 350 queries between two
       vertices of one stub domain, which fill about as many memoised
       rows as one paper_fig7 iteration does. *)
    Test.make ~name:"kernel/oracle_ts5k"
      (Staged.stage
         (let topo = Lazy.force ts5k_large in
          let stubs = topo.TS.stub_vertices in
          let domain = TS.stub_domain_of topo in
          let rng = Prng.create ~seed:11 in
          let queries =
            Array.init 350 (fun _ ->
                let src = stubs.(Prng.int rng (Array.length stubs)) in
                let peers =
                  List.filter
                    (fun v -> Option.equal Int.equal (domain v) (domain src))
                    (Array.to_list stubs)
                in
                (src, List.nth peers (Prng.int rng (List.length peers))))
          in
          fun () ->
            let o = Graph.Oracle.create topo.TS.graph in
            Array.iter
              (fun (src, dst) -> ignore (Graph.Oracle.distance o ~src ~dst))
              queries));
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
    Test.make ~name:"kernel/join_all_4096x5"
      (Staged.stage
         (let nodes =
            Array.init 4096 (fun i -> (float_of_int (1 + (i mod 3)), i))
          in
          fun () ->
            let dht : unit Dht.t = Dht.create ~seed:1 in
            Dht.join_all dht nodes ~n_vs:5));
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

(* One small end-to-end experiment (multi-round balancing on a
   4096-node ring) — enough to populate every field of the bench
   record so @bench-smoke can validate the schema and pin the sim
   digest across two runs without paying for the full figure sweep.
   The size keeps the row's CPU (about 0.15 s, within 25% across runs
   on a 2-vCPU host) well above @bench-gate's 0.02 s floor, so the gate
   compares it. *)
let smoke_nodes = 4096

(* Scale-tier rows (--scale): one observed row per size of each entry
   sized by --sizes (the Gaussian + Pareto convergence pair of
   Experiments.scale_run).  The default gate size is the smallest tier
   (32768) so @bench-gate stays minutes, not hours; P2PLB_SCALE_NODES
   (comma-separated) widens it. *)
let scale_sizes =
  match Sys.getenv_opt "P2PLB_SCALE_NODES" with
  | None -> [ 32768 ]
  | Some s ->
    List.map (int_of ~positive:true "P2PLB_SCALE_NODES")
      (String.split_on_char ',' s)

let scale () =
  List.iter
    (fun (e : E.entry) ->
      match e.E.size with
      | E.Sizes ->
        List.iter
          (fun n ->
            section (Printf.sprintf "%s (%d nodes)" e.E.name n);
            observed
              (Printf.sprintf "%s/%d" e.E.name n)
              (fun obs ->
                let p = { E.defaults with E.p_seed = seed; p_sizes = [ n ] } in
                print_string (e.E.run ~pool ~obs p).E.text))
          scale_sizes
      | E.Unsized | E.Nodes _ | E.Nodes_graphs _ -> ())
    E.registry

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
  let file =
    Benchgate.record ~rev
      ~nodes:(if smoke then smoke_nodes else n_nodes)
      ~graphs ~seed ~smoke ~jobs ~wall_s (List.rev !experiments_acc) !bench_acc
  in
  Benchgate.write file ~path;
  Printf.printf
    "\nwrote %s (%d experiment(s), %d bench(es), jobs %d, wall %.2fs, \
     speedup %.2fx, sim digest %s)\n"
    path
    (List.length file.Benchgate.f_experiments)
    (List.length file.Benchgate.f_benches)
    jobs wall_s file.Benchgate.f_meta.Benchgate.m_speedup
    (Benchgate.sim_digest file)

(* Flags: see [usage]. *)
let () =
  let flag name = Array.exists (String.equal name) Sys.argv in
  let skip_figures = flag "--bench-only" in
  let skip_bench = flag "--figures-only" in
  let smoke_only = flag "--smoke" in
  let with_scale = flag "--scale" in
  let no_json = flag "--no-json" in
  let json_path =
    match arg_value [ "--json-out" ] with
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
