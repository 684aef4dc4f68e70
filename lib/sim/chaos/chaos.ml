module Prng = P2plb_prng.Prng
module Dht = P2plb_chord.Dht
module Faults = P2plb_sim.Faults
module Report = P2plb_metrics.Report
module Scenario = P2plb.Scenario
module Multiround = P2plb.Multiround
module Invariants = P2plb.Invariants

let derive_config ~seed =
  (* A private stream per seed: the fault mix is independent of the
     scenario/fault-plan streams seeded with the same integer. *)
  let rng = Prng.create ~seed:(seed lxor 0x43ca05) in
  let crash_fraction = Prng.float rng 0.25 in
  let message_loss = Prng.float rng 0.04 in
  let max_attempts = 3 + Prng.int rng 8 in
  let backoff_base = 0.005 +. Prng.float rng 0.01 in
  let max_backoff = 0.02 +. Prng.float rng 0.2 in
  let duplicate_prob = 0.02 +. Prng.float rng 0.18 in
  let transfer_crash = 0.02 +. Prng.float rng 0.18 in
  let partitions = 1 + Prng.int rng 2 in
  let partition_groups = 2 + Prng.int rng 2 in
  let partition_duration = 0.3 +. Prng.float rng 1.2 in
  {
    Faults.crash_fraction;
    message_loss;
    max_attempts;
    backoff_base;
    backoff_factor = 2.0;
    max_backoff;
    landmark_failures = 0;
    duplicate_prob;
    transfer_crash;
    partitions;
    partition_groups;
    partition_duration;
  }

let render_config (c : Faults.config) =
  Printf.sprintf
    "crash=%.3f loss=%.3f attempts=%d backoff=%g x%g cap %g dup=%.3f \
     xcrash=%.3f partitions=%d groups=%d duration=%.2f"
    c.Faults.crash_fraction c.Faults.message_loss c.Faults.max_attempts
    c.Faults.backoff_base c.Faults.backoff_factor c.Faults.max_backoff
    c.Faults.duplicate_prob c.Faults.transfer_crash c.Faults.partitions
    c.Faults.partition_groups c.Faults.partition_duration

type seed_outcome = {
  o_seed : int;
  o_config : Faults.config;
  o_rounds : int;
  o_converged : bool;
  o_final_heavy : int;
  o_final_live : int;
  o_crashes : int;
  o_transfer_crashes : int;
  o_partitions : int;
  o_aborted : int;
  o_deduped : int;
  o_retries : int;
  o_timeouts : int;
  o_moved : float;
  o_final_ratio : float;
  o_violation : (int * string) option;
}

type report = {
  base_seed : int;
  seeds_requested : int;
  n_nodes : int;
  max_rounds : int;
  outcomes : seed_outcome list;
  failure : seed_outcome option;
}

let run_seed ?obs ~n_nodes ~max_rounds ~seed () =
  let config = derive_config ~seed in
  let s = Scenario.build ~seed { Scenario.default with Scenario.n_nodes } in
  let dht = s.Scenario.dht in
  let total = Dht.total_load dht in
  let faults = Faults.create ~seed config in
  (* Per-round soak check: full invariant battery plus VS conservation
     against the running snapshot.  The crash budget for the round is
     the fault plan's scheduled + mid-transfer crashes fired since the
     previous snapshot (each kills exactly one node). *)
  let snapshot = ref (Invariants.vs_snapshot dht) in
  let crashes_seen = ref 0 in
  let check (_ : Multiround.round) =
    let fired = Faults.crashes faults + Faults.transfer_crashes faults in
    let delta = fired - !crashes_seen in
    let res =
      Invariants.all ~expected_total:total ~vs_before:!snapshot ~crashes:delta
        dht
    in
    crashes_seen := fired;
    snapshot := Invariants.vs_snapshot dht;
    res
  in
  let r = Multiround.run ~faults ?obs ~max_rounds ~check s in
  (* Final imbalance, survivors only: max unit load over the fair
     share, the paper's convergence criterion (Timeseries tracks the
     same figure per round when an obs bundle is attached). *)
  let final_ratio =
    let cap = Dht.total_capacity dht in
    let fair =
      if Float.compare cap 0.0 > 0 then Dht.total_load dht /. cap else 0.0
    in
    P2plb_obs.Timeseries.ratio ~unit_loads:(Scenario.unit_loads s) ~fair
  in
  ( {
      o_seed = seed;
      o_config = config;
      o_rounds = List.length r.Multiround.rounds;
      o_converged = r.Multiround.converged;
      o_final_heavy = r.Multiround.final_heavy;
      o_final_live = r.Multiround.final_live;
      o_crashes = r.Multiround.crashes;
      o_transfer_crashes = r.Multiround.transfer_crashes;
      o_partitions = r.Multiround.partitions_formed;
      o_aborted = r.Multiround.total_aborted;
      o_deduped = r.Multiround.total_deduped;
      o_retries = r.Multiround.total_retries;
      o_timeouts = r.Multiround.total_timeouts;
      o_moved = r.Multiround.total_moved /. Float.max 1e-9 total;
      o_final_ratio = final_ratio;
      o_violation = r.Multiround.violation;
    },
    r )

let soak ?(pool = P2plb_sim.Par.sequential) ?obs ?(n_nodes = 256)
    ?(max_rounds = 3) ?(seeds = 64) ?(base_seed = 1) () =
  if seeds < 1 then invalid_arg "Chaos.soak: seeds < 1";
  let outcomes, failure =
    if P2plb_sim.Par.jobs pool <= 1 || seeds <= 1 then begin
      (* Sequential: stop at the first violation — seeds after it are
         never run, which the parallel path reproduces by discarding
         their (already computed) outcomes and sink bundles. *)
      let rec go i acc =
        if i >= seeds then (List.rev acc, None)
        else begin
          let outcome, _ =
            run_seed ?obs ~n_nodes ~max_rounds ~seed:(base_seed + i) ()
          in
          match outcome.o_violation with
          | Some _ -> (List.rev (outcome :: acc), Some outcome)
          | None -> go (i + 1) (outcome :: acc)
        end
      in
      go 0 []
    end
    else begin
      (* Every chaos mix has transfer-path faults enabled, so each seed
         runs on its own fault engine and restarts simulated time: the
         private bundles' preset start time is just the parent clock.
         All seeds run (work past a failure is wasted by design); the
         report and the merged sinks keep only seeds up to and
         including the first failure, byte-identical to the sequential
         early exit. *)
      let children =
        match obs with
        | None -> [||]
        | Some parent ->
          let t0 = P2plb_obs.Trace.now (P2plb_obs.Obs.trace parent) in
          Array.init seeds (fun _ ->
              P2plb_obs.Obs.create_task ~start_time:t0)
      in
      let task_obs i =
        if Array.length children = 0 then None else Some children.(i)
      in
      let results =
        (* p2plint: allow-obs — children bundles are threaded per seed by hand because the merge must truncate at the first failing seed *)
        P2plb_sim.Par.run pool ~n:seeds (fun i (_ : P2plb_obs.Obs.t option) ->
            let outcome, _ =
              run_seed ?obs:(task_obs i) ~n_nodes ~max_rounds
                ~seed:(base_seed + i) ()
            in
            outcome)
      in
      let first_failure = ref None in
      Array.iteri
        (fun i o ->
          match (o.o_violation, !first_failure) with
          | Some _, None -> first_failure := Some i
          | _ -> ())
        results;
      let keep =
        match !first_failure with Some i -> i + 1 | None -> seeds
      in
      (match obs with
      | None -> ()
      | Some parent ->
        for i = 0 to keep - 1 do
          P2plb_obs.Obs.merge ~into:parent children.(i)
        done);
      ( List.init keep (fun i -> results.(i)),
        Option.map (fun i -> results.(i)) !first_failure )
    end
  in
  { base_seed; seeds_requested = seeds; n_nodes; max_rounds; outcomes; failure }

let replay_hint ~n_nodes ~max_rounds seed =
  Printf.sprintf "lb_sim chaos --replay %d --nodes %d --rounds %d" seed n_nodes
    max_rounds

let render r =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Report.table
       ~title:
         (Printf.sprintf
            "Chaos soak — %d seed(s) from %d, %d nodes, up to %d rounds each\n\
             (per seed: randomized crash/loss/duplication/partition/\
             mid-transfer-crash mix; all invariants incl. VS conservation \
             asserted after every round)"
            r.seeds_requested r.base_seed r.n_nodes r.max_rounds)
       ~header:
         [ "seed"; "crash"; "loss"; "dup"; "xcrash"; "parts"; "rounds";
           "live"; "heavy"; "ratio"; "aborted"; "dedup"; "invariants" ]
       (List.map
          (fun o ->
            [
              string_of_int o.o_seed;
              Report.percent_cell o.o_config.Faults.crash_fraction;
              Report.percent_cell o.o_config.Faults.message_loss;
              Report.percent_cell o.o_config.Faults.duplicate_prob;
              Report.percent_cell o.o_config.Faults.transfer_crash;
              string_of_int o.o_partitions;
              string_of_int o.o_rounds;
              string_of_int o.o_final_live;
              string_of_int o.o_final_heavy;
              Report.float_cell o.o_final_ratio;
              string_of_int o.o_aborted;
              string_of_int o.o_deduped;
              (match o.o_violation with
              | None -> "ok"
              | Some (round, _) -> Printf.sprintf "VIOLATED@r%d" round);
            ])
          r.outcomes));
  let completed = List.length r.outcomes in
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 r.outcomes in
  Buffer.add_string buf
    (Printf.sprintf
       "\n%d/%d seed(s) run: %d crashes (%d mid-transfer), %d partitions, %d \
        aborted, %d deduped, %d retries, %d timeouts\n"
       completed r.seeds_requested
       (sum (fun o -> o.o_crashes))
       (sum (fun o -> o.o_transfer_crashes))
       (sum (fun o -> o.o_partitions))
       (sum (fun o -> o.o_aborted))
       (sum (fun o -> o.o_deduped))
       (sum (fun o -> o.o_retries))
       (sum (fun o -> o.o_timeouts)));
  (match r.failure with
  | None ->
    Buffer.add_string buf "all seeds passed every per-round invariant check\n"
  | Some o ->
    let round, reason =
      match o.o_violation with Some v -> v | None -> (-1, "?")
    in
    Buffer.add_string buf
      (Printf.sprintf
         "FIRST FAILING SEED: %d (round %d)\n  reason: %s\n  config: %s\n\
         \  replay: %s\n"
         o.o_seed round reason
         (render_config o.o_config)
         (replay_hint ~n_nodes:r.n_nodes ~max_rounds:r.max_rounds o.o_seed)));
  Buffer.contents buf

let failed r = match r.failure with Some _ -> true | None -> false

let replay ?obs ?(n_nodes = 256) ?(max_rounds = 3) ~seed () =
  let outcome, r = run_seed ?obs ~n_nodes ~max_rounds ~seed () in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "chaos replay — seed %d, %d nodes, up to %d rounds\n"
       seed n_nodes max_rounds);
  Buffer.add_string buf
    (Printf.sprintf "fault config: %s\n\n" (render_config outcome.o_config));
  Buffer.add_string buf (Format.asprintf "%a" Multiround.pp r);
  Buffer.add_string buf
    (Printf.sprintf "final max/avg utilization: %s\n"
       (Report.float_cell outcome.o_final_ratio));
  (match outcome.o_violation with
  | None ->
    Buffer.add_string buf
      "every per-round invariant check passed (incl. VS conservation)\n"
  | Some (round, reason) ->
    Buffer.add_string buf
      (Printf.sprintf "INVARIANT VIOLATION after round %d: %s\n" round reason));
  Buffer.contents buf
