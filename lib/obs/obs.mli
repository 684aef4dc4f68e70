(** The observability bundle threaded through a load-balancing round.

    One {!Trace.t} (ordered events in simulated time), one
    {!Registry.t} (named aggregate series) and one {!Timeseries.t}
    (per-round load snapshots).  Instrumented subsystems accept
    [?obs:Obs.t]; [None] is the zero-overhead default and every
    instrumentation site degrades to a no-op, so un-observed runs are
    byte-identical to pre-instrumentation ones. *)

type t = { trace : Trace.t; metrics : Registry.t; series : Timeseries.t }

val create : unit -> t

val trace : t -> Trace.t
val metrics : t -> Registry.t
val series : t -> Timeseries.t

(** {1 Task bundles} — parallel execution support (DESIGN.md §12)

    A parallel runner gives every task a private bundle created with
    {!create_task} (manual trace clock preset to the simulated time the
    task would have started at sequentially, journaled registry), runs
    the tasks on separate domains, then folds the children back with
    {!merge} in task-index order.  Each sink's merge is constructed so
    the fold reproduces the sequential recording byte-for-byte, which
    is why [--jobs N] cannot move any digest pin. *)

val create_task : start_time:float -> t
(** A private bundle for one task: manual clock at [start_time],
    journaled registry, fresh series. *)

val merge : into:t -> t -> unit
(** {!Trace.merge}, {!Registry.merge} and {!Timeseries.merge} of the
    child's sinks into [into]'s.  Call in task-index order; discard the
    child afterwards. *)
