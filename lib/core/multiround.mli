module Faults = P2plb_sim.Faults

(** Driving the load balancer to convergence.

    The paper's scheme runs periodically; one round usually suffices
    (Fig. 4), but adversarial load shapes (heavy Pareto tails, tiny
    epsilon) can need a few rounds, and a live system re-balances
    after every load drift.  This module iterates {!Controller.run}
    until quiescence and reports per-round statistics.

    Under an enabled fault plan the iteration doubles as a churn
    experiment: the plan's node crashes and partition episodes are
    armed on a simulated clock spanning all rounds and fire at the
    phase barriers inside each round, while message loss stresses the
    retry layer and transfer-path faults exercise the transactional
    VST protocol.
    Rounds then run on whatever nodes remain, and convergence is
    judged against the live population.

    A per-round [check] hook turns the iteration into a soak: the
    first failing check stops the run and is reported as a
    [violation], so a chaos harness can assert whole-system invariants
    after every round and name the exact round that broke them.
    {!invariant_check} is that check; the chaos soak, the resilience
    experiment and the partition example all pass it.

    Every run to convergence in the library goes through here; the
    scale tier derives its rows from each round's [outcome]. *)

type round = {
  outcome : Controller.outcome;
      (** the round's whole {!Controller.run} result; the fields below
          are read from it (and from the DHT after the round) *)
  index : int;  (** 0-based *)
  heavy_before : int;
  heavy_after : int;
  moved_load : float;
  transfers : int;
  live_nodes : int;  (** alive after the round *)
  skipped : int;  (** transfers dropped (stale pairing after churn) *)
  aborted : int;  (** transfer transactions rolled back per cause *)
  deduped : int;  (** duplicated TRANSFERs dropped by sequence number *)
  repairs : int;  (** KT nodes re-planted this round *)
  repair_messages : int;
  retries : int;
  timeouts : int;
}

type result = {
  rounds : round list;  (** in execution order, at least one *)
  converged : bool;
      (** no heavy node remained, or a fixpoint was reached (a round
          moved nothing); always [false] when a check failed *)
  total_moved : float;
  final_heavy : int;
  final_live : int;
  total_repairs : int;
  total_repair_messages : int;
  total_retries : int;
  total_timeouts : int;
  total_aborted : int;
  total_deduped : int;
  crashes : int;  (** fault-plan scheduled crashes that fired *)
  transfer_crashes : int;  (** mid-transfer-window crashes injected *)
  partitions_formed : int;  (** partition episodes that started *)
  violation : (int * string) option;
      (** first failing per-round check: (round index, message) *)
}

val run :
  ?config:Controller.config ->
  ?faults:Faults.t ->
  ?obs:P2plb_obs.Obs.t ->
  ?max_rounds:int ->
  ?check:(round -> (unit, string) Stdlib.result) ->
  Scenario.t ->
  result
(** Runs up to [max_rounds] (default 10) rounds, stopping early when
    no heavy nodes remain or a round makes no transfer.  Every round
    runs under [faults] (default: one fresh quiet plan,
    [Faults.create ~seed:0 Faults.none], shared by all rounds).  When
    it is {!Faults.enabled}, its crash schedule and partition episodes
    are armed over a horizon of [max_rounds] simulated time units;
    otherwise nothing is armed.  [obs] is threaded into every round
    (see {!Controller.run}); successive rounds occupy successive units
    of simulated time.  An armed run
    arms its plan at the trace's clock (0 without [obs]), so the
    trace's time never decreases; events past the last round run
    never fire.

    [check] runs after every round (after the round's last barrier has
    fired its fault events); the first [Error] stops the iteration and
    is recorded as [violation]. *)

val invariant_check :
  faults:Faults.t ->
  expected_total:float ->
  P2plb_chord.Dht.t ->
  round ->
  (unit, string) Stdlib.result
(** [invariant_check ~faults ~expected_total dht] is the soak's
    per-round [check]: after each round, {!Invariants.all} with load
    conservation against [expected_total] and VS conservation against
    a snapshot of the ring taken at the previous check (at the partial
    application for the first round).  Each round's crash budget is
    the crashes [faults] fired since that snapshot, scheduled plus
    mid-transfer: each kills exactly one node.  Apply it once per run,
    after the scenario is built and before {!run}. *)

val pp : Format.formatter -> result -> unit
