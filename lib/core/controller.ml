module Dht = P2plb_chord.Dht
module Ktree = P2plb_ktree.Ktree
module Hilbert = P2plb_hilbert.Hilbert
module Histogram = P2plb_metrics.Histogram
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
}

let run ?(config = default) ?(faults = Faults.create ~seed:0 Faults.none) ?obs
    (s : Scenario.t) =
  let dht = s.Scenario.dht in
  (* Faults and the tree report through the observability bundle. *)
  Option.iter (Faults.attach_obs faults) obs;
  (* Fault-plan counters are cumulative; report this round's share. *)
  let retries0 = Faults.retries faults and timeouts0 = Faults.timeouts faults in
  (* The round occupies one unit of simulated time, from the armed
     fault plan's clock (the trace's when no plan is armed), and each
     phase ends at a barrier.  The plan's crash, partition and heal
     events fire at the barriers, between phases: mid-round churn and
     mid-round cuts.  Trace timestamps are this simulated time, never
     the wall clock. *)
  let round_start =
    match Faults.clock faults with
    | Some c -> c
    | None -> (
      match obs with
      | Some o -> P2plb_obs.Trace.now (P2plb_obs.Obs.trace o)
      | None -> 0.0)
  in
  (* Returns the number of plan events it fired. *)
  let barrier frac =
    let time = round_start +. frac in
    let fired = Faults.fire_until faults ~time in
    (match obs with
    | Some o -> P2plb_obs.Trace.set_time (P2plb_obs.Obs.trace o) time
    | None -> ());
    fired
  in
  (* Phase spans: begun at a phase's start, closed after the barrier
     that ends it, so the span's extent is the phase's slice of the
     round's unit of simulated time.  End attributes carry per-phase
     message counts, sweep depths and the plan events fired. *)
  let begin_phase name attrs =
    match obs with
    | None -> None
    | Some o ->
      Some (P2plb_obs.Trace.begin_span (P2plb_obs.Obs.trace o) ~attrs name)
  in
  let end_phase sp ~events attrs =
    match (obs, sp) with
    | Some o, Some sp ->
      P2plb_obs.Trace.end_span (P2plb_obs.Obs.trace o)
        ~attrs:(attrs @ [ ("events", P2plb_obs.Trace.Int events) ])
        sp
    | _ -> ()
  in
  let unit_loads_before = Scenario.unit_loads s in
  (* Phase 0: the aggregation infrastructure. *)
  let sp = begin_phase "phase/kt_build" [] in
  let tree = Ktree.build ~route_messages:config.route_messages ~k:config.k dht in
  (match obs with Some o -> Ktree.set_obs tree o | None -> ());
  let events = barrier 0.2 in
  end_phase sp ~events
    [
      ("messages", P2plb_obs.Trace.Int (Ktree.messages tree));
      ("depth", P2plb_obs.Trace.Int (Ktree.depth tree));
      ("nodes", P2plb_obs.Trace.Int (Ktree.n_nodes tree));
    ];
  (* Phase 1: LBI aggregation + dissemination. *)
  let msg0 = Ktree.messages tree in
  let sp = begin_phase "phase/lbi" [] in
  let lbi =
    Lbi.run ~rng:s.Scenario.rng ~faults ~route_messages:config.route_messages
      tree dht
  in
  let lbi_rounds = Ktree.rounds_last_sweep tree in
  let epsilon = config.epsilon_rel *. lbi.Types.l /. lbi.Types.c in
  let events = barrier 0.4 in
  end_phase sp ~events
    [
      ("messages", P2plb_obs.Trace.Int (Ktree.messages tree - msg0));
      ("rounds", P2plb_obs.Trace.Int lbi_rounds);
    ];
  (* Phase 2: classification (recorded; the VSA re-derives it per node). *)
  let sp = begin_phase "phase/classify" [] in
  let census_before = Classify.census ~lbi ~epsilon dht in
  let heavy, light, neutral = census_before in
  end_phase sp ~events:0
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
  let msg0 = Ktree.messages tree in
  let sp = begin_phase "phase/vsa" [] in
  let vsa =
    Vsa.run ~threshold:config.threshold ~epsilon ~faults
      ~route_messages:config.route_messages ~mode ~rng:s.Scenario.rng ~lbi tree
      dht
  in
  let events = barrier 0.7 in
  end_phase sp ~events
    [
      ("messages", P2plb_obs.Trace.Int (Ktree.messages tree - msg0));
      ("rounds", P2plb_obs.Trace.Int vsa.Vsa.rounds);
      ("assignments", P2plb_obs.Trace.Int (List.length vsa.Vsa.assignments));
    ];
  (* Phase 4: virtual-server transferring.  The span's [mode] is what
     lets a trace reader group per-transfer hop costs into the paper's
     aware / ignorant series (Figures 7-8) without re-running. *)
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
    Vst.apply ~tree ?obs ~faults
      ?oracle:(if config.account_distance then Some s.Scenario.oracle else None)
      dht
      vsa.Vsa.assignments
  in
  let census_after = Classify.census ~lbi ~epsilon dht in
  let unit_loads_after = Scenario.unit_loads s in
  (* The round's last barrier: plan events in (0.7, 1.0] fire after the
     round's results are taken. *)
  let events = barrier 1.0 in
  end_phase sp ~events
    [
      ("messages", P2plb_obs.Trace.Int (Ktree.messages tree - msg0));
      ("transfers", P2plb_obs.Trace.Int vst.Vst.transfers);
      ("skipped", P2plb_obs.Trace.Int vst.Vst.skipped);
      ("moved_load", P2plb_obs.Trace.Float vst.Vst.moved_load);
      ("aborted", P2plb_obs.Trace.Int vst.Vst.aborted);
      ("deduped", P2plb_obs.Trace.Int vst.Vst.deduped);
    ];
  (* The per-round load snapshot for the convergence time-series.  It
     goes to the bundle's series sink (not the trace), so trace digest
     pins are unaffected. *)
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
         ~moved:vst.Vst.moved_load ~total_load:lbi.Types.l));
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
    retries = Faults.retries faults - retries0;
    timeouts = Faults.timeouts faults - timeouts0;
    kt_repairs = Ktree.repairs tree;
    kt_repair_messages = Ktree.repair_messages tree;
  }

let moved_fraction o =
  if o.lbi.Types.l <= 0.0 then 0.0 else o.vst.Vst.moved_load /. o.lbi.Types.l

let cdf_at o ~hops = Histogram.cumulative_fraction o.vst.Vst.hist hops
