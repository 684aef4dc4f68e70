module Prng = P2plb_prng.Prng
module Dht = P2plb_chord.Dht
module Faults = P2plb_sim.Faults
module Report = P2plb_metrics.Report
module Scenario = P2plb.Scenario
module Multiround = P2plb.Multiround

let derive_config ~seed =
  (* A private stream per seed: the fault mix is independent of the
     scenario/fault-plan streams seeded with the same integer. *)
  let rng = Prng.create ~seed:(seed lxor 0x43ca05) in
  let crash_fraction = Prng.float rng 0.25 in
  let message_loss = Prng.float rng 0.04 in
  let max_attempts = 3 + Prng.int rng 8 in
  (* Two draws that once set the retransmission backoff, kept so every
     later field of each seed's mix stays where it was. *)
  ignore (Prng.float rng 0.01 : float);
  ignore (Prng.float rng 0.2 : float);
  let duplicate_prob = 0.02 +. Prng.float rng 0.18 in
  let transfer_crash = 0.02 +. Prng.float rng 0.18 in
  let partitions = 1 + Prng.int rng 2 in
  let partition_groups = 2 + Prng.int rng 2 in
  let partition_duration = 0.3 +. Prng.float rng 1.2 in
  {
    Faults.crash_fraction;
    message_loss;
    max_attempts;
    duplicate_prob;
    transfer_crash;
    partitions;
    partition_groups;
    partition_duration;
  }

let render_config (c : Faults.config) =
  Printf.sprintf
    "crash=%.3f loss=%.3f attempts=%d dup=%.3f xcrash=%.3f partitions=%d \
     groups=%d duration=%.2f"
    c.Faults.crash_fraction c.Faults.message_loss c.Faults.max_attempts
    c.Faults.duplicate_prob c.Faults.transfer_crash c.Faults.partitions
    c.Faults.partition_groups c.Faults.partition_duration

type seed_outcome = {
  o_seed : int;
  o_config : Faults.config;
  o_result : Multiround.result;
  o_final_ratio : float;
}

type report = {
  base_seed : int;
  seeds_requested : int;
  n_nodes : int;
  max_rounds : int;
  outcomes : seed_outcome list;
  failure : seed_outcome option;
}

let violated o = Option.is_some o.o_result.Multiround.violation

let run_seed ?obs ~n_nodes ~max_rounds ~seed () =
  let config = derive_config ~seed in
  let s = Scenario.build ~seed { Scenario.default with Scenario.n_nodes } in
  let dht = s.Scenario.dht in
  let faults = Faults.create ~seed config in
  let check =
    Multiround.invariant_check ~faults ~expected_total:(Dht.total_load dht)
      dht
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
  { o_seed = seed; o_config = config; o_result = r; o_final_ratio = final_ratio }

let soak ?(pool = P2plb_sim.Par.sequential) ?obs ?(n_nodes = 256)
    ?(max_rounds = 3) ?(seeds = 64) ?(base_seed = 1) () =
  if seeds < 1 then invalid_arg "Chaos.soak: seeds < 1";
  (* All seeds run, each into its own fresh bundle; the report and the
     merged sinks keep only the seeds up to and including the first
     failure.  The merge is [Par.run]'s, cut short: each kept bundle is
     laid after the one before it on the parent's clock. *)
  let children =
    match obs with
    | None -> [||]
    | Some _ -> Array.init seeds (fun _ -> P2plb_obs.Obs.create ())
  in
  let task_obs i =
    if Array.length children = 0 then None else Some children.(i)
  in
  let results =
    (* p2plint: allow-obs — children bundles are threaded per seed by hand because the merge must truncate at the first failing seed *)
    P2plb_sim.Par.run pool ~n:seeds (fun i (_ : P2plb_obs.Obs.t option) ->
        run_seed ?obs:(task_obs i) ~n_nodes ~max_rounds ~seed:(base_seed + i)
          ())
  in
  let keep =
    match Array.find_index violated results with
    | Some i -> i + 1
    | None -> seeds
  in
  Option.iter
    (fun parent ->
      for i = 0 to keep - 1 do
        P2plb_obs.Obs.merge ~into:parent children.(i)
      done)
    obs;
  let outcomes = List.init keep (fun i -> results.(i)) in
  {
    base_seed;
    seeds_requested = seeds;
    n_nodes;
    max_rounds;
    outcomes;
    failure = List.find_opt violated outcomes;
  }

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
            let m = o.o_result in
            [
              string_of_int o.o_seed;
              Report.percent_cell o.o_config.Faults.crash_fraction;
              Report.percent_cell o.o_config.Faults.message_loss;
              Report.percent_cell o.o_config.Faults.duplicate_prob;
              Report.percent_cell o.o_config.Faults.transfer_crash;
              string_of_int m.Multiround.partitions_formed;
              string_of_int (List.length m.Multiround.rounds);
              string_of_int m.Multiround.final_live;
              string_of_int m.Multiround.final_heavy;
              Report.float_cell o.o_final_ratio;
              string_of_int m.Multiround.total_aborted;
              string_of_int m.Multiround.total_deduped;
              (match m.Multiround.violation with
              | None -> "ok"
              | Some (round, _) -> Printf.sprintf "VIOLATED@r%d" round);
            ])
          r.outcomes));
  let completed = List.length r.outcomes in
  let sum f = List.fold_left (fun acc o -> acc + f o.o_result) 0 r.outcomes in
  Buffer.add_string buf
    (Printf.sprintf
       "\n%d/%d seed(s) run: %d crashes (%d mid-transfer), %d partitions, %d \
        aborted, %d deduped, %d retries, %d timeouts\n"
       completed r.seeds_requested
       (sum (fun m -> m.Multiround.crashes))
       (sum (fun m -> m.Multiround.transfer_crashes))
       (sum (fun m -> m.Multiround.partitions_formed))
       (sum (fun m -> m.Multiround.total_aborted))
       (sum (fun m -> m.Multiround.total_deduped))
       (sum (fun m -> m.Multiround.total_retries))
       (sum (fun m -> m.Multiround.total_timeouts)));
  (match r.failure with
  | None ->
    Buffer.add_string buf "all seeds passed every per-round invariant check\n"
  | Some o ->
    let round, reason =
      match o.o_result.Multiround.violation with
      | Some v -> v
      | None -> (-1, "?")
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
  let outcome = run_seed ?obs ~n_nodes ~max_rounds ~seed () in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "chaos replay — seed %d, %d nodes, up to %d rounds\n"
       seed n_nodes max_rounds);
  Buffer.add_string buf
    (Printf.sprintf "fault config: %s\n\n" (render_config outcome.o_config));
  Buffer.add_string buf (Format.asprintf "%a" Multiround.pp outcome.o_result);
  Buffer.add_string buf
    (Printf.sprintf "final max/avg utilization: %s\n"
       (Report.float_cell outcome.o_final_ratio));
  (match outcome.o_result.Multiround.violation with
  | None ->
    Buffer.add_string buf
      "every per-round invariant check passed (incl. VS conservation)\n"
  | Some (round, reason) ->
    Buffer.add_string buf
      (Printf.sprintf "INVARIANT VIOLATION after round %d: %s\n" round reason));
  Buffer.contents buf
