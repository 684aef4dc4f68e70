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
    - With [?obs], every task records into a fresh {!Obs.create}
      bundle whose trace clock starts at 0, whatever the job count.
      After the join the bundles are appended to the parent with
      {!Obs.merge} in task-index order, each laid after the one before
      it on the parent's clock, as if the task had recorded next on
      the parent.  One worker or sixteen run the same code, so the
      sinks agree byte for byte.
    - Randomness: tasks must derive their streams from per-task seeds
      or from streams split off ({!Prng.split}) {e before} the fan-out,
      never by drawing from a stream another task also draws from.

    Scheduling order across workers is arbitrary; only the merge order
    is fixed, and it is what the sinks observe.  See DESIGN.md §12. *)

type t
(** A (reusable) pool configuration. *)

val create : jobs:int -> t
(** [create ~jobs] makes a pool that runs at most [jobs] tasks
    concurrently, spawning [min jobs n - 1] worker domains per {!run}
    call (the calling domain is the remaining worker).  [jobs = 1] is
    the sequential pool: its one worker is the calling domain.  Raises
    [Invalid_argument] if [jobs < 1]. *)

val sequential : t
(** [create ~jobs:1]. *)

val run : t -> ?obs:Obs.t -> n:int -> (int -> Obs.t option -> 'a) -> 'a array
(** [run pool ?obs ~n f] evaluates [f i obs_i] for each task index [i]
    in [\[0, n)] and returns the [n] results in index order.  [obs_i]
    is task [i]'s own bundle when [obs] is given, [None] otherwise.

    If any task raises, the remaining tasks still complete and the
    exception of the lowest-index failing task is re-raised after the
    pool joins; no task's bundle is merged, so [obs] is left as it
    was. *)
