module Dht = P2plb_chord.Dht
module Ktree = P2plb_ktree.Ktree
module Hilbert = P2plb_hilbert.Hilbert
module Histogram = P2plb_metrics.Histogram
module Engine = P2plb_sim.Engine
module Faults = P2plb_sim.Faults

type config = {
  k : int;
  epsilon_rel : float;
  threshold : int;
  proximity : bool;
  hilbert_order : int;
  curve : Hilbert.curve;
  binning : P2plb_landmark.Landmark.binning;
  route_messages : bool;
  account_distance : bool;
}

let default =
  {
    k = 2;
    epsilon_rel = 0.05;
    threshold = Vsa.default_threshold;
    proximity = true;
    hilbert_order = 2;
    curve = Hilbert.Hilbert;
    binning = P2plb_landmark.Landmark.Equal_width;
    route_messages = false;
    account_distance = true;
  }

type outcome = {
  lbi : Types.lbi;
  epsilon : float;
  census_before : int * int * int;
  census_after : int * int * int;
  vsa : Vsa.result;
  vst : Vst.result;
  tree_depth : int;
  tree_nodes : int;
  lbi_rounds : int;
  vsa_rounds : int;
  tree_messages : int;
  unit_loads_before : float array;
  unit_loads_after : float array;
  retries : int;
  timeouts : int;
  kt_repairs : int;
  kt_repair_messages : int;
  crashes_mid_round : int;
}

let run ?(config = default) ?faults ?engine ?obs (s : Scenario.t) =
  let dht = s.Scenario.dht in
  (* Observability wiring: the trace follows the engine clock when one
     is attached (simulated time, never wall clock); engine-less runs
     advance a manual logical clock at the phase barriers.  Faults and
     the tree report through the same bundle. *)
  (match (obs, engine) with
  | Some o, Some e ->
    P2plb_obs.Trace.set_clock (P2plb_obs.Obs.trace o) (fun () -> Engine.now e)
  | _ -> ());
  (match (obs, faults) with
  | Some o, Some f -> Faults.attach_obs f o
  | _ -> ());
  (* Fault-plan counters are cumulative; report this round's share. *)
  let retries0, timeouts0, crashes0 =
    match faults with
    | None -> (0, 0, 0)
    | Some f -> (Faults.retries f, Faults.timeouts f, Faults.crashes f)
  in
  (* With a clock attached, the round occupies one unit of simulated
     time and each phase ends at a barrier; armed fault events (node
     crashes) fire between phases, exercising mid-round churn. *)
  let round_start =
    match engine with
    | Some e -> Engine.now e
    | None -> (
      match obs with
      | Some o -> P2plb_obs.Trace.now (P2plb_obs.Obs.trace o)
      | None -> 0.0)
  in
  let barrier frac =
    match engine with
    | Some e -> Engine.run_until e ~time:(round_start +. frac)
    | None -> (
      match obs with
      | Some o ->
        P2plb_obs.Trace.set_time (P2plb_obs.Obs.trace o) (round_start +. frac)
      | None -> ())
  in
  (* Phase spans: begun at a phase's start, closed after the barrier
     that ends it, so the span's extent is the phase's slice of the
     round's unit of simulated time.  End attributes carry per-phase
     message counts, sweep depths and engine-event deltas. *)
  let begin_phase name attrs =
    match obs with
    | None -> None
    | Some o ->
      Some (P2plb_obs.Trace.begin_span (P2plb_obs.Obs.trace o) ~attrs name)
  in
  let engine_processed () =
    match engine with Some e -> (Engine.stats e).Engine.processed | None -> 0
  in
  let end_phase sp ~events0 attrs =
    match (obs, sp) with
    | Some o, Some sp ->
      let attrs =
        attrs
        @ [ ("events", P2plb_obs.Trace.Int (engine_processed () - events0)) ]
      in
      P2plb_obs.Trace.end_span (P2plb_obs.Obs.trace o) ~attrs sp
    | _ -> ()
  in
  let unit_loads_before = Scenario.unit_loads s in
  (* Phase 0: the aggregation infrastructure. *)
  let ev0 = engine_processed () in
  let sp = begin_phase "phase/kt_build" [] in
  let tree = Ktree.build ~route_messages:config.route_messages ~k:config.k dht in
  (match obs with Some o -> Ktree.set_obs tree o | None -> ());
  barrier 0.2;
  end_phase sp ~events0:ev0
    [
      ("messages", P2plb_obs.Trace.Int (Ktree.messages tree));
      ("depth", P2plb_obs.Trace.Int (Ktree.depth tree));
      ("nodes", P2plb_obs.Trace.Int (Ktree.n_nodes tree));
    ];
  (* Phase 1: LBI aggregation + dissemination. *)
  let ev0 = engine_processed () in
  let msg0 = Ktree.messages tree in
  let sp = begin_phase "phase/lbi" [] in
  let lbi =
    Lbi.run ~rng:s.Scenario.rng ?faults ~route_messages:config.route_messages
      tree dht
  in
  let lbi_rounds = Ktree.rounds_last_sweep tree in
  let epsilon = config.epsilon_rel *. lbi.Types.l /. lbi.Types.c in
  barrier 0.4;
  end_phase sp ~events0:ev0
    [
      ("messages", P2plb_obs.Trace.Int (Ktree.messages tree - msg0));
      ("rounds", P2plb_obs.Trace.Int lbi_rounds);
    ];
  (* Phase 2: classification (recorded; the VSA re-derives it per node). *)
  let ev0 = engine_processed () in
  let sp = begin_phase "phase/classify" [] in
  let census_before = Classify.census ~lbi ~epsilon dht in
  let heavy, light, neutral = census_before in
  end_phase sp ~events0:ev0
    [
      ("heavy", P2plb_obs.Trace.Int heavy);
      ("light", P2plb_obs.Trace.Int light);
      ("neutral", P2plb_obs.Trace.Int neutral);
    ];
  (* Phase 3: virtual-server assignment. *)
  let mode =
    if config.proximity then
      Vsa.Aware
        {
          space = s.Scenario.space;
          order = config.hilbert_order;
          curve = config.curve;
          binning = config.binning;
        }
    else Vsa.Ignorant
  in
  let ev0 = engine_processed () in
  let msg0 = Ktree.messages tree in
  let sp = begin_phase "phase/vsa" [] in
  let vsa =
    Vsa.run ~threshold:config.threshold ~epsilon ?faults
      ~route_messages:config.route_messages ~mode ~rng:s.Scenario.rng ~lbi tree
      dht
  in
  barrier 0.7;
  end_phase sp ~events0:ev0
    [
      ("messages", P2plb_obs.Trace.Int (Ktree.messages tree - msg0));
      ("rounds", P2plb_obs.Trace.Int vsa.Vsa.rounds);
      ("assignments", P2plb_obs.Trace.Int (List.length vsa.Vsa.assignments));
    ];
  (* Phase 4: virtual-server transferring.  The span's [mode] is what
     lets a trace reader group per-transfer hop costs into the paper's
     aware / ignorant series (Figures 7-8) without re-running. *)
  let ev0 = engine_processed () in
  let msg0 = Ktree.messages tree in
  let sp =
    begin_phase "phase/vst"
      [
        ( "mode",
          P2plb_obs.Trace.Str (if config.proximity then "aware" else "ignorant")
        );
      ]
  in
  let vst =
    Vst.apply ~tree ?obs ?faults
      ?oracle:(if config.account_distance then Some s.Scenario.oracle else None)
      dht
      vsa.Vsa.assignments
  in
  let census_after = Classify.census ~lbi ~epsilon dht in
  (* The round occupies one unit of logical time in engine-less traced
     runs; engine-driven runs are advanced between rounds by their
     caller, so the engine path is left untouched here. *)
  (match (engine, obs) with
  | None, Some o ->
    P2plb_obs.Trace.set_time (P2plb_obs.Obs.trace o) (round_start +. 1.0)
  | _ -> ());
  end_phase sp ~events0:ev0
    [
      ("messages", P2plb_obs.Trace.Int (Ktree.messages tree - msg0));
      ("transfers", P2plb_obs.Trace.Int vst.Vst.transfers);
      ("skipped", P2plb_obs.Trace.Int vst.Vst.skipped);
      ("moved_load", P2plb_obs.Trace.Float vst.Vst.moved_load);
      ("aborted", P2plb_obs.Trace.Int vst.Vst.aborted);
      ("deduped", P2plb_obs.Trace.Int vst.Vst.deduped);
    ];
  let unit_loads_after = Scenario.unit_loads s in
  (* Round-level registry series, the per-round load snapshot for the
     convergence time-series, and the engine profiling snapshot.  The
     snapshot goes to the bundle's series sink (not the trace), so
     trace/metrics digest pins are unaffected. *)
  (match obs with
  | None -> ()
  | Some o ->
    let fair =
      if Float.compare lbi.Types.c 0.0 > 0 then lbi.Types.l /. lbi.Types.c
      else 0.0
    in
    ignore
      (P2plb_obs.Timeseries.record (P2plb_obs.Obs.series o)
         ~round:(int_of_float round_start)
         ~time:(round_start +. 1.0)
         ~epsilon:config.epsilon_rel ~unit_loads:unit_loads_after ~fair
         ~moved:vst.Vst.moved_load ~total_load:lbi.Types.l);
    let m = P2plb_obs.Obs.metrics o in
    P2plb_obs.Registry.add (P2plb_obs.Registry.counter m "round/rounds") 1;
    P2plb_obs.Registry.add
      (P2plb_obs.Registry.counter m "round/messages")
      (Ktree.messages tree);
    (match engine with
    | None -> ()
    | Some e ->
      let st = Engine.stats e in
      P2plb_obs.Registry.set
        (P2plb_obs.Registry.gauge m "engine/processed")
        (float_of_int st.Engine.processed);
      P2plb_obs.Registry.peak
        (P2plb_obs.Registry.gauge m "engine/peak_pending")
        (float_of_int st.Engine.peak_pending)));
  let retries1, timeouts1, crashes1 =
    match faults with
    | None -> (0, 0, 0)
    | Some f -> (Faults.retries f, Faults.timeouts f, Faults.crashes f)
  in
  {
    lbi;
    epsilon;
    census_before;
    census_after;
    vsa;
    vst;
    tree_depth = Ktree.depth tree;
    tree_nodes = Ktree.n_nodes tree;
    lbi_rounds;
    vsa_rounds = vsa.Vsa.rounds;
    tree_messages = Ktree.messages tree;
    unit_loads_before;
    unit_loads_after;
    retries = retries1 - retries0;
    timeouts = timeouts1 - timeouts0;
    kt_repairs = Ktree.repairs tree;
    kt_repair_messages = Ktree.repair_messages tree;
    crashes_mid_round = crashes1 - crashes0;
  }

let moved_fraction o =
  if o.lbi.Types.l <= 0.0 then 0.0 else o.vst.Vst.moved_load /. o.lbi.Types.l

let cdf_at o ~hops = Histogram.cumulative_fraction o.vst.Vst.hist hops
