(** The observability bundle threaded through a load-balancing round.

    One {!Trace.t} (ordered events in simulated time) and one
    {!Timeseries.t} (per-round load snapshots).  Run totals are a view
    of the trace ({!Spantree.totals}), not a second recorder.
    Instrumented subsystems accept [?obs:Obs.t]; [None] is the
    zero-overhead default and every instrumentation site degrades to a
    no-op, so un-observed runs are byte-identical to
    pre-instrumentation ones. *)

type t = { trace : Trace.t; series : Timeseries.t }

val create : unit -> t

val trace : t -> Trace.t
val series : t -> Timeseries.t

(** {1 Task bundles} — parallel execution support (DESIGN.md §12)

    A parallel runner gives every task a fresh bundle from {!create},
    its trace clock at 0, runs the tasks, then appends the children
    with {!merge} in task-index order.  Each child is laid after the
    one before it, so the merged sinks read as one timeline. *)

val merge : into:t -> t -> unit
(** [merge ~into child] appends [child] to [into] as if the child's
    records had been made next on [into].  With [p] the clock of
    [into]'s trace at the call: {!Trace.merge} shifts the child's
    events by [p] and leaves the clock at [p] plus the child's clock,
    and {!Timeseries.merge} appends the child's samples, their times
    and rounds shifted by [p].
    Call in task-index order; discard the child afterwards. *)
