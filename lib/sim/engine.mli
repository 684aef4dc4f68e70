(** A small discrete-event simulation engine.

    Drives the fault plan's crash and partition events: {!Faults.arm}
    schedules them (from [Multiround.run], one unit of simulated time
    per round) and they fire at [Controller.run]'s phase barriers,
    between the phases of a round.  The balancer's K-nary tree upkeep
    does not use it: [Ktree.refresh]/[Ktree.repair] run once per round.
    Events at equal timestamps fire in scheduling order
    (deterministic). *)

type t

type handle
(** A scheduled event, usable for cancellation. *)

val create : unit -> t

val now : t -> float
(** Current simulated time; starts at 0. *)

val schedule : t -> delay:float -> (t -> unit) -> handle
(** [schedule t ~delay f] fires [f] at [now t +. delay].
    [delay >= 0]. *)

val schedule_at : t -> time:float -> (t -> unit) -> handle
(** Absolute-time variant; [time >= now t]. *)

val schedule_periodic : t -> interval:float -> ?phase:float -> (t -> unit) -> handle
(** Fires first at [now + phase] (default [interval]) and then every
    [interval] until cancelled.  [interval > 0]. *)

val cancel : handle -> unit
(** Cancelling an already-fired or cancelled event is a no-op.
    Cancelling a periodic event stops all future firings. *)

val pending : t -> int
(** Events still queued (cancelled ones may be counted until they are
    discarded lazily). *)

val run_until : t -> time:float -> unit
(** Processes every event with timestamp [<= time], then advances the
    clock to [time]. *)

val step : t -> bool
(** Processes the single next event; [false] when the queue is empty. *)

type stats = {
  processed : int;  (** events whose action has fired (cancelled ones excluded) *)
  pending : int;  (** events currently queued, cancelled or not *)
  peak_pending : int;  (** high-water mark of the event queue *)
  cancelled_pending : int;  (** queued events already cancelled (lazy discard) *)
}

val stats : t -> stats
(** A snapshot of the engine's lifetime counters, for profiling hooks
    and the observability layer.  O(pending) — it scans the queue to
    count cancelled-but-still-queued events. *)

val run : ?max_events:int -> t -> int
(** Processes events until the queue drains (or [max_events] is hit,
    protecting against self-perpetuating periodics); returns the
    number of events processed. *)
