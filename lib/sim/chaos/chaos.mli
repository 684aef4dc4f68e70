module Faults = P2plb_sim.Faults
module Multiround = P2plb.Multiround

(** Deterministic chaos-soak harness.

    For each of N seeds, derives a randomized fault mix (node crashes,
    message loss, per-message duplication, mid-transfer crash windows,
    and partition episodes — every class the fault layer can inject),
    runs multiround balancing under it, and asserts the full invariant
    battery — including VS conservation — after every round.  The
    report names the first failing seed with its complete fault config
    and a one-command replay line, so a red soak reproduces in one
    step.

    Everything derives from integer seeds: a soak re-run with the same
    base seed, node count and round budget is byte-identical. *)

val derive_config : seed:int -> Faults.config
(** The randomized fault mix for one seed: crash fraction up to 25%,
    message loss up to 4% with 3–10 attempts per reliable send,
    duplication and mid-transfer-crash probabilities in [2%, 20%], and
    1–2 partition episodes of 2–3 groups.  Deterministic in
    [seed]; every transfer-path fault class is always enabled. *)

type seed_outcome = {
  o_seed : int;
  o_config : Faults.config;
  o_result : Multiround.result;
      (** the seed's rounds, fault counts and first failing per-round
          invariant check ([violation]), if any *)
  o_final_ratio : float;
      (** final max/avg utilization over the surviving nodes — the
          paper's convergence criterion ({!Timeseries.ratio}) *)
}

type report = {
  base_seed : int;
  seeds_requested : int;
  n_nodes : int;
  max_rounds : int;
  outcomes : seed_outcome list;
      (** in seed order; truncated after the first failure *)
  failure : seed_outcome option;  (** the first failing seed, if any *)
}

val run_seed :
  ?obs:P2plb_obs.Obs.t ->
  n_nodes:int ->
  max_rounds:int ->
  seed:int ->
  unit ->
  seed_outcome
(** One soak iteration: builds the scenario and fault plan from
    [seed], derives the fault mix with {!derive_config}, and drives
    {!Multiround.run} with {!Multiround.invariant_check} after every
    round (load conservation against the initial total, plus VS
    conservation against a per-round snapshot with the round's crash
    budget). *)

val soak :
  ?pool:P2plb_sim.Par.t ->
  ?obs:P2plb_obs.Obs.t ->
  ?n_nodes:int ->
  ?max_rounds:int ->
  ?seeds:int ->
  ?base_seed:int ->
  unit ->
  report
(** [soak ()] runs seeds [base_seed .. base_seed + seeds - 1]
    (defaults: 64 seeds from 1, 256 nodes, up to 3 rounds each), one
    {!P2plb_sim.Par} task per seed on [?pool] (default sequential),
    each recording into its own child of [?obs].

    Every seed runs, at any job count, including the seeds after an
    invariant violation.  The report — and the children merged into
    [?obs] — then keep only the seeds up to and including the first
    failure, in seed order, so the result does not depend on the
    pool.  Each kept child is laid after the one before it on
    [?obs]'s clock by {!P2plb_obs.Obs.merge}. *)

val render : report -> string
(** The soak table (one row per seed) plus aggregate fault counts and,
    on failure, the failing seed's config and replay command. *)

val failed : report -> bool

val replay :
  ?obs:P2plb_obs.Obs.t ->
  ?n_nodes:int ->
  ?max_rounds:int ->
  seed:int ->
  unit ->
  string
(** Re-runs a single seed verbosely: fault config, per-round
    multiround statistics, and the invariant verdict. *)
