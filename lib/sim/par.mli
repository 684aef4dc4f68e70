module Obs = P2plb_obs.Obs
module Prng = P2plb_prng.Prng

(** Deterministic domain pool for independent simulation tasks.

    {b Determinism contract.}  [run pool ~n f] evaluates the task body
    [f i] once for every [i] in [\[0, n)] and returns the results in
    task-index order.  The contract is that the observable output —
    returned values, and every byte of the trace/metrics/timeseries
    sinks when an [?obs] bundle is supplied — is {e identical} whether
    the pool has 1 job or 16:

    - Tasks must be {e independent}: a task may only read state created
      before [run] and write state it created itself (its scenario, its
      PRNG stream, its private [Obs] bundle).  p2plint rule R10 flags
      shared mutable state captured by task closures.
    - With [?obs], a pool of [jobs = 1] threads the parent bundle
      straight through each task sequentially — today's behaviour,
      bit-for-bit.  With [jobs > 1] each task records into a private
      bundle created by {!Obs.create_task} whose manual trace clock is
      preset to the simulated time the task would have reached
      sequentially (the [?task_time] left-fold); the children are then
      folded back with {!Obs.merge} in task-index order.  Each sink's
      merge reproduces the sequential recording byte-for-byte (ordered
      event append with offset ids, registry op-journal replay,
      cumulative-column recomputation), so digests cannot move.
      Events a task records {e before} first touching its clock (its
      opening span, typically) are re-stamped by the merge with the
      clock value the previous task actually left — data-dependent
      and unknowable up front — so the preset only has to be right
      for [Trace.now] reads the task itself performs.
    - Randomness: tasks must derive their streams from per-task seeds
      or from streams split off ({!Prng.split}) {e before} the fan-out,
      never by drawing from a stream another task also draws from.

    Scheduling order across workers is arbitrary; only the merge order
    is fixed, and it is what the sinks observe.  See DESIGN.md §12. *)

type t
(** A (reusable) pool configuration. *)

val create : jobs:int -> t
(** [create ~jobs] makes a pool that runs at most [jobs] tasks
    concurrently, spawning [jobs - 1] worker domains per {!run} call
    (the calling domain is the remaining worker).  [jobs = 1] is the
    sequential pool.  Raises [Invalid_argument] if [jobs < 1]. *)

val sequential : t
(** [create ~jobs:1]. *)

val jobs : t -> int

val run :
  t ->
  ?obs:Obs.t ->
  ?task_time:(int -> float) ->
  n:int ->
  (int -> Obs.t option -> 'a) ->
  'a array
(** [run pool ?obs ?task_time ~n f] evaluates [f i obs_i] for each
    task index [i] in [\[0, n)] and returns the [n] results in index
    order.

    [task_time i] is the amount of {e simulated} time task [i] advances
    the manual trace clock by (default: [fun _ -> 1.0], one balancing
    round per task); it is used to preset each private bundle's clock
    so absolute timestamps match the sequential run.  Tasks that arm a
    fault plan restart simulated time at 0 themselves and are
    unaffected by the preset.

    If any task raises, the remaining tasks still complete and the
    exception of the lowest-index failing task is re-raised after the
    pool joins (no obs merge happens in that case). *)
