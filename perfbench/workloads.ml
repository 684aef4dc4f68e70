(* The benchmark's three workloads.

   Each is a batch simulation driven by this process, its inputs drawn
   from the seed up front.  An iteration runs a workload once, either
   untraced, through the program's own entry points (Scenario.build,
   Controller.run, Multiround.run) timed as a whole, or traced: the
   same builds and rounds replayed through the layers' public
   functions, each call timed from here.  The replay must reproduce
   the untraced run exactly; [fingerprint] and [round] hold what the
   fidelity gate compares. *)

module Prng = P2plb_prng.Prng
module Dht = P2plb_chord.Dht
module Ktree = P2plb_ktree.Ktree
module Graph = P2plb_topology.Graph
module Transit_stub = P2plb_topology.Transit_stub
module Landmark = P2plb_landmark.Landmark
module Workload = P2plb_workload.Workload
module Histogram = P2plb_metrics.Histogram
module Faults = P2plb_sim.Faults
module Par = P2plb_sim.Par
module Chaos = P2plb_chaos.Chaos
module Timeseries = P2plb_obs.Timeseries
module Scenario = P2plb.Scenario
module Controller = P2plb.Controller
module Lbi = P2plb.Lbi
module Classify = P2plb.Classify
module Vsa = P2plb.Vsa
module Vst = P2plb.Vst
module Types = P2plb.Types
module Multiround = P2plb.Multiround
module Invariants = P2plb.Invariants

let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let sumf f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs
let last xs = List.nth xs (List.length xs - 1)

(* Per-layer figures of a traced iteration, keyed by the names of
   Spec.per_layer: seconds spent inside a layer's calls, and counts. *)
module Layers = struct
  type t = (string, float) Hashtbl.t

  let create () : t = Hashtbl.create 64
  let get (t : t) k = Option.value ~default:0.0 (Hashtbl.find_opt t k)
  let add t k v = Hashtbl.replace t k (get t k +. v)
  let count t k n = add t k (float_of_int n)
  let peak t k n = Hashtbl.replace t k (Float.max (get t k) (float_of_int n))

  let time t k f =
    let r, dt = timed f in
    add t k dt;
    r

  let keys (t : t) =
    List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t [])

  let merge ~into t = List.iter (fun k -> add into k (get t k)) (keys t)
end

(* ---- set-up --------------------------------------------------------- *)

(* Scenario.build's steps in its PRNG split order, each timed. *)
let replay_build lt ?base ~seed (config : Scenario.config) : Scenario.t =
  let master = Prng.create ~seed in
  let topo_rng = Prng.split master in
  let member_rng = Prng.split master in
  let load_rng = Prng.split master in
  let landmark_rng = Prng.split master in
  let lb_rng = Prng.split master in
  let topo, oracle, base_space =
    match base with
    | Some (b : Scenario.t) -> (b.topo, b.oracle, Some b.space)
    | None ->
      let topo =
        Layers.time lt "topology.generate_s" (fun () ->
            Transit_stub.generate topo_rng config.topology)
      in
      let oracle =
        Layers.time lt "topology.oracle_create_s" (fun () ->
            Graph.Oracle.create topo.Transit_stub.graph)
      in
      (topo, oracle, None)
  in
  let stubs = topo.Transit_stub.stub_vertices in
  let dht =
    Layers.time lt "chord.join_s" (fun () ->
        let picks =
          Prng.sample_distinct member_rng ~n:config.n_nodes
            ~universe:(Array.length stubs)
        in
        let dht = Dht.create ~seed:(seed lxor 0x5bd1e995) in
        Array.iter
          (fun i ->
            let capacity = Workload.sample_capacity member_rng in
            ignore
              (Dht.join dht ~capacity ~underlay:stubs.(i)
                 ~n_vs:config.vs_per_node))
          picks;
        dht)
  in
  Layers.time lt "workload.assign_s" (fun () ->
      Workload.assign_loads load_rng config.workload dht);
  let space =
    match base_space with
    | Some space -> space
    | None ->
      Layers.time lt "landmark.space_s" (fun () ->
          let g = topo.Transit_stub.latency_graph in
          let m = config.landmark_m in
          let landmarks =
            if config.landmark_spread then
              Landmark.select_spread landmark_rng g ~m
            else Landmark.select_random landmark_rng g ~m
          in
          Landmark.make_space g ~landmarks)
  in
  { rng = lb_rng; dht; topo; oracle; space; config }

let build layers ?base ~seed config =
  match layers with
  | None -> Scenario.build ?base ~seed config
  | Some lt -> replay_build lt ?base ~seed config

(* What a build hands the balancer: membership, ring and loads, the
   balancer's PRNG stream, and the underlay and landmark choices. *)
type fingerprint = {
  nodes : (int * int * float * int list) list;
  ring : (int * int * float) list;
  lb_stream : int64 list;
  landmarks : int array;
  stubs : int array;
  edges : int;
}

let fingerprint (s : Scenario.t) =
  let rng = Prng.copy s.rng in
  let draw1 = Prng.bits64 rng in
  let draw2 = Prng.bits64 rng in
  {
    nodes =
      List.map
        (fun (n : Dht.node) ->
          ( n.node_id,
            n.underlay,
            n.capacity,
            List.map (fun (v : Dht.vs) -> v.vs_id) n.vss ))
        (Dht.alive_nodes s.dht);
    ring =
      List.rev
        (Dht.fold_vs s.dht ~init:[] ~f:(fun acc (v : Dht.vs) ->
             (v.vs_id, v.owner, v.load) :: acc));
    lb_stream = [ draw1; draw2 ];
    landmarks = Landmark.landmarks s.space;
    stubs = s.topo.stub_vertices;
    edges = Graph.n_edges s.topo.graph;
  }

(* ---- rounds --------------------------------------------------------- *)

(* One balancing round's outcome: what the fidelity gate compares. *)
type round = {
  lbi : Types.lbi;
  epsilon : float;
  heavy_before : int;
  heavy_after : int;
  moved : float;
  transfers : int;
  skipped : int;
  messages : int;  (** tree build, sweep and VST messages *)
  hops : (int * float) list;  (** moved load per underlay hop distance *)
  unit_after : float array;
}

let round_of_outcome (o : Controller.outcome) : round =
  let heavy_before, _, _ = o.census_before in
  let heavy_after, _, _ = o.census_after in
  {
    lbi = o.lbi;
    epsilon = o.epsilon;
    heavy_before;
    heavy_after;
    moved = o.vst.Vst.moved_load;
    transfers = o.vst.Vst.transfers;
    skipped = o.vst.Vst.skipped;
    messages = o.tree_messages;
    hops = Histogram.bins o.vst.Vst.hist;
    unit_after = o.unit_loads_after;
  }

(* Controller.run's phases without faults, engine or obs, each call
   timed: Ktree.build, Lbi.run, Classify.census, Vsa.run, Vst.apply,
   Classify.census. *)
let replay_round lt (config : Controller.config) (s : Scenario.t) : round =
  let dht = s.dht and oracle = s.oracle in
  let mode = if config.proximity then "aware" else "ignorant" in
  let lookups0 = Dht.lookups_performed dht and hops0 = Dht.hops_used dht in
  let probes0 = Graph.Oracle.probes oracle in
  let sources0 = Graph.Oracle.sources_computed oracle in
  let tree =
    Layers.time lt "ktree.build_s" (fun () ->
        Ktree.build ~route_messages:config.route_messages ~k:config.k dht)
  in
  Layers.peak lt "ktree.depth" (Ktree.depth tree);
  let lbi =
    Layers.time lt "lbi.run_s" (fun () ->
        Lbi.run ~rng:s.rng ~route_messages:config.route_messages tree dht)
  in
  Layers.count lt "lbi.sweep_rounds" (Ktree.rounds_last_sweep tree);
  let epsilon = config.epsilon_rel *. lbi.Types.l /. lbi.Types.c in
  let heavy () =
    let h, _, _ =
      Layers.time lt "classify.census_s" (fun () ->
          Classify.census ~lbi ~epsilon dht)
    in
    h
  in
  let heavy_before = heavy () in
  let vsa_mode =
    if config.proximity then
      Vsa.Aware
        {
          space = s.space;
          order = config.hilbert_order;
          curve = config.curve;
          binning = config.binning;
        }
    else Vsa.Ignorant
  in
  let vsa =
    Layers.time lt "vsa.run_s" (fun () ->
        Vsa.run ~threshold:config.threshold ~epsilon
          ~route_messages:config.route_messages ~mode:vsa_mode ~rng:s.rng ~lbi
          tree dht)
  in
  Layers.count lt "vsa.rounds" vsa.Vsa.rounds;
  Layers.count lt "vsa.assignments" (List.length vsa.Vsa.assignments);
  let vst =
    Layers.time lt "vst.apply_s" (fun () ->
        Vst.apply ~tree
          ?oracle:(if config.account_distance then Some oracle else None)
          dht vsa.Vsa.assignments)
  in
  let heavy_after = heavy () in
  Layers.count lt "vst.transfers" vst.Vst.transfers;
  Layers.count lt "vst.skipped" vst.Vst.skipped;
  Layers.count lt
    ("topology.oracle_probes." ^ mode)
    (Graph.Oracle.probes oracle - probes0);
  Layers.count lt
    ("topology.oracle_sources." ^ mode)
    (Graph.Oracle.sources_computed oracle - sources0);
  Layers.count lt "chord.lookups" (Dht.lookups_performed dht - lookups0);
  Layers.count lt "chord.hops" (Dht.hops_used dht - hops0);
  Layers.count lt "ktree.messages" (Ktree.messages tree);
  {
    lbi;
    epsilon;
    heavy_before;
    heavy_after;
    moved = vst.Vst.moved_load;
    transfers = vst.Vst.transfers;
    skipped = vst.Vst.skipped;
    messages = Ktree.messages tree;
    hops = Histogram.bins vst.Vst.hist;
    unit_after = Scenario.unit_loads s;
  }

let round_step layers config s =
  match layers with
  | None -> round_of_outcome (Controller.run ~config s)
  | Some lt -> replay_round lt config s

let round_budget = 8

let timed_round layers config s = timed (fun () -> round_step layers config s)

(* Rounds until no node is heavy, a round moves nothing (a fixed point)
   or the budget is spent: Experiments.scale_run's stopping rule.  Each
   round comes with its wall seconds. *)
let balance layers config s =
  let rec go acc =
    let ((r, _) as timed_r) = timed_round layers config s in
    let acc = timed_r :: acc in
    if
      r.heavy_after = 0 || Float.equal r.moved 0.0
      || List.length acc >= round_budget
    then List.rev acc
    else go acc
  in
  go []

(* ---- iterations ----------------------------------------------------- *)

type iteration = {
  setup_s : float;  (** wall seconds building the scenario(s) *)
  balance_s : float;  (** wall seconds from the first round to the stop *)
  cpu_s : float;  (** process CPU seconds, set-up included *)
  alloc_bytes : float;  (** allocated on every domain, set-up included *)
  round_s : float list;  (** wall seconds of each round *)
  useful_rounds : int;  (** rounds that moved load *)
  final_ratio : float;  (** max over fair unit load, surviving nodes *)
  moved_frac : float;  (** moved load over total load *)
  heavy_after : int;
  messages : int option;  (** tree, sweep and VST messages, where counted *)
  transfers : int;
  skipped : int;
  aborted : int;
  checks : (string * bool) list;  (** the workload's output checks *)
  notes : (string * float) list;  (** further figures for the report *)
  task_s : float list;  (** wall seconds of each task given to Par *)
  jobs : int;
  rounds : round list;  (** compared by the fidelity gate *)
  fingerprints : fingerprint list;  (** likewise, one per build *)
}

let final_ratio (s : Scenario.t) =
  let dht = s.dht in
  Timeseries.ratio ~unit_loads:(Scenario.unit_loads s)
    ~fair:(Dht.total_load dht /. Dht.total_capacity dht)

(* Share of the moved load that travelled at most [hops] underlay hops. *)
let cdf_at (rounds : round list) ~hops =
  let bins = List.concat_map (fun (r : round) -> r.hops) rounds in
  let total = sumf snd bins in
  let near = sumf (fun (b, w) -> if b <= hops then w else 0.0) bins in
  if total > 0.0 then near /. total else 0.0

(* Process CPU seconds and bytes allocated on the calling domain while
   [f] runs. *)
let metered f =
  let c0 = Sys.time () and a0 = Gc.allocated_bytes () in
  let r = f () in
  (r, Sys.time () -. c0, Gc.allocated_bytes () -. a0)

(* An iteration of a one-domain workload from its timed rounds. *)
let single_domain ~final_ratio ~setup_s ~balance_s ~cpu_s ~alloc_bytes
    ~fingerprints timed_rounds : iteration =
  let rounds = List.map fst timed_rounds in
  let first = List.hd rounds in
  let skipped = sum (fun (r : round) -> r.skipped) rounds in
  {
    setup_s;
    balance_s;
    cpu_s;
    alloc_bytes;
    round_s = List.map snd timed_rounds;
    useful_rounds = List.length (List.filter (fun (r : round) -> r.moved > 0.0) rounds);
    final_ratio;
    moved_frac = sumf (fun (r : round) -> r.moved) rounds /. first.lbi.Types.l;
    heavy_after = (last rounds).heavy_after;
    messages = Some (sum (fun (r : round) -> r.messages) rounds);
    transfers = sum (fun (r : round) -> r.transfers) rounds;
    skipped;
    aborted = 0;
    checks = [ ("no transfer skipped", skipped = 0) ];
    notes = [ ("heavy_before", float_of_int first.heavy_before) ];
    task_s = [ balance_s ];
    jobs = 1;
    rounds;
    fingerprints;
  }

(* ---- paper_fig7 ----------------------------------------------------- *)

let fig7_graphs = 3
let fig7_config = { Scenario.default with n_nodes = 512 }

(* One graph instance's share of a paper_fig7 iteration. *)
type graph_run = {
  g_ratio : float;  (** final_ratio after the aware rounds *)
  g_setup_s : float;
  g_balance_s : float;
  g_aware : (round * float) list;
  g_ignorant : (round * float) list;
  g_fingerprints : fingerprint list;
}

(* Per graph instance, as Experiments.proximity_run: proximity-aware
   rounds until no node is heavy, then ignorant rounds on a re-build
   that reuses the topology, oracle and landmark space.  Several graphs
   per iteration, as the paper averages over several. *)
let paper_fig7 ~layers ~fingerprints ~seed =
  let one_graph g =
    let seed = seed + (1000 * g) in
    let s, aware_setup = timed (fun () -> build layers ~seed fig7_config) in
    let fp_aware = if fingerprints then [ fingerprint s ] else [] in
    let aware, aware_s = timed (fun () -> balance layers Controller.default s) in
    let s2, ignorant_setup =
      timed (fun () -> build layers ~base:s ~seed fig7_config)
    in
    let fp_ignorant = if fingerprints then [ fingerprint s2 ] else [] in
    let ignorant, ignorant_s =
      timed (fun () ->
          balance layers { Controller.default with proximity = false } s2)
    in
    {
      g_ratio = final_ratio s;
      g_setup_s = aware_setup +. ignorant_setup;
      g_balance_s = aware_s +. ignorant_s;
      g_aware = aware;
      g_ignorant = ignorant;
      g_fingerprints = fp_aware @ fp_ignorant;
    }
  in
  let graphs, cpu_s, alloc_bytes =
    metered (fun () -> List.init fig7_graphs one_graph)
  in
  let it =
    single_domain
      ~final_ratio:
        (sumf (fun g -> g.g_ratio) graphs /. float_of_int fig7_graphs)
      ~setup_s:(sumf (fun g -> g.g_setup_s) graphs)
      ~balance_s:(sumf (fun g -> g.g_balance_s) graphs)
      ~cpu_s ~alloc_bytes
      ~fingerprints:(List.concat_map (fun g -> g.g_fingerprints) graphs)
      (List.concat_map (fun g -> g.g_aware @ g.g_ignorant) graphs)
  in
  let rounds_of pass = List.concat_map (fun g -> List.map fst (pass g)) graphs in
  let aware = rounds_of (fun g -> g.g_aware)
  and ignorant = rounds_of (fun g -> g.g_ignorant) in
  (* Heavy nodes left where each graph's pass stopped. *)
  let heavy_left pass =
    sum
      (fun g ->
        let (r : round), _ = last (pass g) in
        r.heavy_after)
      graphs
  in
  let aware_heavy = heavy_left (fun g -> g.g_aware) in
  let ignorant_heavy = heavy_left (fun g -> g.g_ignorant) in
  let first_aware g = fst (List.hd g.g_aware) in
  let cdf2_aware = cdf_at aware ~hops:2 in
  let cdf2_ignorant = cdf_at ignorant ~hops:2 in
  {
    it with
    moved_frac =
      sumf (fun (r : round) -> r.moved) aware
      /. sumf (fun g -> (first_aware g).lbi.Types.l) graphs;
    heavy_after = aware_heavy + ignorant_heavy;
    checks =
      [
        ("no heavy node after the aware rounds", aware_heavy = 0);
        ("no heavy node after the ignorant rounds", ignorant_heavy = 0);
        ("aware CDF@2 above ignorant CDF@2", cdf2_aware > cdf2_ignorant);
      ]
      @ it.checks;
    notes =
      [
        ( "heavy_before",
          float_of_int (sum (fun g -> (first_aware g).heavy_before) graphs) );
        ("cdf2_aware", cdf2_aware);
        ("cdf10_aware", cdf_at aware ~hops:10);
        ("cdf2_ignorant", cdf2_ignorant);
        ("cdf10_ignorant", cdf_at ignorant ~hops:10);
      ];
  }

(* ---- scale_pareto --------------------------------------------------- *)

let scale_nodes = 4096

let scale_config =
  {
    Scenario.default with
    n_nodes = scale_nodes;
    workload = Workload.default_pareto;
    topology = Transit_stub.scaled ~n:scale_nodes;
  }

(* Every node still heavy holds a VS whose load alone exceeds its
   target: VS granularity, not the balancer, leaves it heavy. *)
let residual_heavies_at_granularity (s : Scenario.t) (r : round) =
  Dht.fold_nodes s.dht ~init:true ~f:(fun ok (n : Dht.node) ->
      let target =
        Classify.target_load ~lbi:r.lbi ~epsilon:r.epsilon ~capacity:n.capacity
      in
      ok
      && (Dht.node_load n <= target
         || List.exists (fun (v : Dht.vs) -> v.load > target) n.vss))

(* Two rounds, as a periodic balancer runs them: the productive round,
   then one that finds nothing left it can move yet pays for the tree
   build and both sweeps.  The granularity check applies only when the
   second round is that fixed point; otherwise the balancer could still
   move load and the heavies left say nothing. *)
let scale_pareto ~layers ~fingerprints ~seed =
  let cc = { Controller.default with account_distance = false } in
  let run () =
    let s, setup_s = timed (fun () -> build layers ~seed scale_config) in
    let fps = if fingerprints then [ fingerprint s ] else [] in
    let rounds, balance_s =
      timed (fun () ->
          let first = timed_round layers cc s in
          [ first; timed_round layers cc s ])
    in
    (s, setup_s, balance_s, rounds, fps)
  in
  let (s, setup_s, balance_s, rounds, fps), cpu_s, alloc_bytes = metered run in
  let it =
    single_domain ~final_ratio:(final_ratio s) ~setup_s ~balance_s ~cpu_s
      ~alloc_bytes ~fingerprints:fps rounds
  in
  let second = last it.rounds in
  {
    it with
    checks =
      ( "at the fixed point every residual heavy node holds a VS above its \
         target",
        (not (Float.equal second.moved 0.0))
        || residual_heavies_at_granularity s second )
      :: it.checks;
  }

(* ---- churn_faults --------------------------------------------------- *)

let churn_nodes = 256
let churn_seeds = 4
let churn_rounds = 3
let churn_jobs = 2

(* One chaos seed's inputs, built before the fan-out. *)
type chaos_input = {
  c_seed : int;
  c_scenario : Scenario.t;
  c_faults : Faults.t;
  c_total : float;
}

type chaos_output = {
  c_result : Multiround.result;
  c_checks : (string * bool) list;
  c_round_s : float list;
  c_ratio : float;
  c_moved_frac : float;
  c_wall : float;
  c_alloc : float;  (** on the domain that ran the task *)
  c_domain : int;
  c_layers : Layers.t;
}

(* Workload seed n runs chaos seeds 4n .. 4n+3. *)
let chaos_seeds ~seed = List.init churn_seeds (fun i -> (churn_seeds * seed) + i)

let chaos_inputs layers ~seed =
  List.map
    (fun seed ->
      let s =
        build layers ~seed { Scenario.default with n_nodes = churn_nodes }
      in
      {
        c_seed = seed;
        c_scenario = s;
        c_faults = Faults.create ~seed (Chaos.derive_config ~seed);
        c_total = Dht.total_load s.dht;
      })
    (chaos_seeds ~seed)

(* Chaos.run_seed's soak round loop with its per-round invariant
   check; rounds are timed through Multiround.run's [check] hook. *)
let chaos_task (inp : chaos_input) : chaos_output =
  let lt = Layers.create () in
  let s = inp.c_scenario and faults = inp.c_faults in
  let dht = s.dht in
  let lookups0 = Dht.lookups_performed dht and hops0 = Dht.hops_used dht in
  let snapshot = ref (Invariants.vs_snapshot dht) in
  let crashes_seen = ref 0 in
  let verdicts = ref [] and round_s = ref [] in
  let t0 = now () and a0 = Gc.allocated_bytes () in
  let round_start = ref t0 in
  let check (r : Multiround.round) =
    round_s := (now () -. !round_start) :: !round_s;
    let fired = Faults.crashes faults + Faults.transfer_crashes faults in
    let res =
      Layers.time lt "invariants.check_s" (fun () ->
          Invariants.all ~expected_total:inp.c_total ~vs_before:!snapshot
            ~crashes:(fired - !crashes_seen) dht)
    in
    crashes_seen := fired;
    snapshot := Invariants.vs_snapshot dht;
    verdicts :=
      ( Printf.sprintf "seed %d round %d invariants" inp.c_seed r.index,
        Result.is_ok res )
      :: !verdicts;
    round_start := now ();
    res
  in
  let result = Multiround.run ~faults ~max_rounds:churn_rounds ~check s in
  let final_ok =
    Result.is_ok (Invariants.all ~expected_total:inp.c_total dht)
  in
  let wall = now () -. t0 and alloc = Gc.allocated_bytes () -. a0 in
  let rounds = result.rounds in
  List.iter
    (fun (k, n) -> Layers.count lt k n)
    [
      ("faults.retries", Faults.retries faults);
      ("faults.timeouts", Faults.timeouts faults);
      ("faults.drops", Faults.drops faults);
      ("faults.duplicates", Faults.duplicates faults);
      ("faults.partition_drops", Faults.partition_drops faults);
      ("faults.crashes", Faults.crashes faults);
      ("faults.transfer_crashes", Faults.transfer_crashes faults);
      ("vst.transfers", sum (fun (r : Multiround.round) -> r.transfers) rounds);
      ("vst.skipped", sum (fun (r : Multiround.round) -> r.skipped) rounds);
      ("vst.aborted", result.total_aborted);
      ("vst.deduped", result.total_deduped);
      ("ktree.repairs", result.total_repairs);
      ("ktree.repair_messages", result.total_repair_messages);
      ("topology.oracle_probes.aware", Graph.Oracle.probes s.oracle);
      ("topology.oracle_sources.aware", Graph.Oracle.sources_computed s.oracle);
      ("chord.lookups", Dht.lookups_performed dht - lookups0);
      ("chord.hops", Dht.hops_used dht - hops0);
    ];
  {
    c_result = result;
    c_checks =
      List.rev
        ((Printf.sprintf "seed %d final invariants" inp.c_seed, final_ok)
        :: !verdicts);
    c_round_s = List.rev !round_s;
    c_ratio = final_ratio s;
    c_moved_frac = result.total_moved /. inp.c_total;
    c_wall = wall;
    c_alloc = alloc;
    c_domain = (Domain.self () :> int);
    c_layers = lt;
  }

(* Chaos fault mixes, one Par task per chaos seed. *)
let churn_faults ?(jobs = churn_jobs) ~layers ~fingerprints ~seed () :
    iteration =
  let main = (Domain.self () :> int) in
  let c0 = Sys.time () and a0 = Gc.allocated_bytes () in
  let inputs, setup_s = timed (fun () -> chaos_inputs layers ~seed) in
  let fps =
    if fingerprints then List.map (fun i -> fingerprint i.c_scenario) inputs
    else []
  in
  let inputs = Array.of_list inputs in
  let outputs, balance_s =
    timed (fun () ->
        Par.run (Par.create ~jobs) ~n:(Array.length inputs) (fun i _ ->
            chaos_task inputs.(i)))
  in
  let outputs = Array.to_list outputs in
  let cpu_s = Sys.time () -. c0 in
  (* Gc.allocated_bytes counts the calling domain only: add what the
     tasks that ran on other domains allocated there. *)
  let alloc_bytes =
    Gc.allocated_bytes () -. a0
    +. sumf (fun o -> if o.c_domain = main then 0.0 else o.c_alloc) outputs
  in
  Option.iter
    (fun lt -> List.iter (fun o -> Layers.merge ~into:lt o.c_layers) outputs)
    layers;
  let results = List.map (fun o -> o.c_result) outputs in
  let rounds = List.concat_map (fun (r : Multiround.result) -> r.rounds) results in
  let mean f = sumf f outputs /. float_of_int (List.length outputs) in
  let total f = sum f results in
  {
    setup_s;
    balance_s;
    cpu_s;
    alloc_bytes;
    round_s = List.concat_map (fun o -> o.c_round_s) outputs;
    useful_rounds =
      List.length
        (List.filter (fun (r : Multiround.round) -> r.moved_load > 0.0) rounds);
    final_ratio = mean (fun o -> o.c_ratio);
    moved_frac = mean (fun o -> o.c_moved_frac);
    heavy_after = total (fun r -> r.final_heavy);
    messages = None;
    transfers = sum (fun (r : Multiround.round) -> r.transfers) rounds;
    skipped = sum (fun (r : Multiround.round) -> r.skipped) rounds;
    aborted = total (fun r -> r.total_aborted);
    checks = List.concat_map (fun o -> o.c_checks) outputs;
    notes =
      [
        ("crashes", float_of_int (total (fun r -> r.crashes)));
        ("transfer_crashes", float_of_int (total (fun r -> r.transfer_crashes)));
        ("partitions", float_of_int (total (fun r -> r.partitions_formed)));
        ("deduped", float_of_int (total (fun r -> r.total_deduped)));
      ];
    task_s = List.map (fun o -> o.c_wall) outputs;
    jobs;
    rounds = [];
    fingerprints = fps;
  }

(* ---- the registry --------------------------------------------------- *)

type t = {
  name : string;
  iterate :
    layers:Layers.t option -> fingerprints:bool -> seed:int -> iteration;
}

let all =
  [
    { name = "paper_fig7"; iterate = paper_fig7 };
    { name = "scale_pareto"; iterate = scale_pareto };
    {
      name = "churn_faults";
      iterate =
        (fun ~layers ~fingerprints ~seed ->
          churn_faults ~layers ~fingerprints ~seed ());
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
