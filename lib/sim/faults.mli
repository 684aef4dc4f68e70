module Prng = P2plb_prng.Prng

(** Deterministic fault injection.

    A fault plan is derived entirely from a seed: a schedule of node
    crashes and network partition episodes (drawn by {!arm}, fired by
    {!fire_until}), a per-message loss stream consumed by the
    reliable-send wrapper, per-message duplication, and mid-transfer
    crash windows.  Landmarks always
    answer, as the landmark clustering of paper §4.2 assumes.  Every
    draw flows through private SplitMix64 streams, so a plan replayed
    with the same seed injects byte-identical faults — experiments
    stay reproducible under churn.

    Every balancing round runs under exactly one plan: a caller that
    passes none gets a quiet one, [create ~seed:0 none].  A zero rate
    costs nothing: with [message_loss = 0] {!send} consumes no
    randomness and always delivers on the first attempt; with
    [duplicate_prob = 0] / [transfer_crash = 0] the transfer-window
    draws consume nothing; with [partitions = 0] no episode is
    scheduled.  A plan built from {!none} therefore injects no fault
    and draws from none of its streams. *)

type config = {
  crash_fraction : float;
      (** fraction of the initial population crashed over the horizon
          passed to {!arm} (fail-stop, uniform random times) *)
  message_loss : float;  (** per-attempt drop probability in [0, 1) *)
  max_attempts : int;
      (** total send attempts before the sender gives up (>= 1) *)
  duplicate_prob : float;
      (** per-TRANSFER probability in [0, 1) that the message is
          delivered twice — replays must be deduplicated by the
          transfer protocol's sequence numbers *)
  transfer_crash : float;
      (** per-transaction probability in [0, 1) that one endpoint
          fail-stops inside the PREPARE..COMMIT window *)
  partitions : int;
      (** partition episodes scheduled over the {!arm} horizon *)
  partition_groups : int;
      (** sides of each partition (>= 2 when [partitions > 0]);
          cross-group messages drop while an episode is active *)
  partition_duration : float;
      (** sim-time length of each episode (> 0 when [partitions > 0]) *)
}

val none : config
(** All-zero plan: no crashes, no loss, no partitions, no
    duplication, no transfer-window crashes. *)

val churn :
  ?crash_fraction:float ->
  ?message_loss:float ->
  ?duplicate_prob:float ->
  ?transfer_crash:float ->
  ?partitions:int ->
  ?partition_groups:int ->
  ?partition_duration:float ->
  unit ->
  config
(** [churn ()] is the standard churn plan: 10% crashes, 1% message
    loss, 4 attempts.  The network-fault fields
    default to zero/off.  The loss applies to every message, the VST
    PREPARE and COMMIT included. *)

type t

val create : seed:int -> config -> t
(** Plans with equal seeds and configs inject identical faults. *)

val enabled : t -> bool
(** Whether the plan can inject anything at all. *)

val attach_obs : t -> P2plb_obs.Obs.t -> unit
(** Routes injected faults to an observability bundle: every drop,
    retry, timeout, crash, duplication and partition event emits a
    cause-tagged trace point (["fault/drop"], ["fault/retry"],
    ["fault/timeout"], ["fault/crash"], ["fault/duplicate"],
    ["fault/transfer_crash"], ["fault/partition"], ["fault/heal"]);
    the [--metrics-out] view counts them by name.  Without an
    attachment the plan stays silent (and allocation-free). *)

(** {1 Message loss and reliable send} *)

type send_outcome =
  | Delivered of int  (** total attempts used, >= 1 *)
  | Lost  (** all [max_attempts] were dropped; the sender timed out *)

val send : t -> send_outcome
(** One reliable send: attempts are dropped independently with
    probability [message_loss]; each retry is counted.  Consumes no
    randomness when [message_loss <= 0]. *)

val sends : t -> int -> unit
(** [sends t n] is [n] calls of {!send} whose outcomes the sender does
    not read: the same draws, counters and trace points.  O(1) when
    [message_loss <= 0]. *)

val deliver : t -> bool
(** One unreliable (single-attempt) send; [true] when it gets through.
    Consumes no randomness when [message_loss <= 0]. *)

val send_between : t -> src:int -> dst:int -> send_outcome
(** Endpoint-aware reliable send: [Lost] immediately (consuming no
    randomness, counted as a partition drop) when an active partition
    separates [src] from [dst]; otherwise behaves as {!send}. *)

val loss_stream : t -> Prng.t
(** A copy of the plan's loss stream, for tests: the draws its next
    loss decisions would take. *)

(** {1 Partitions} *)

val cut : t -> a:int -> b:int -> bool
(** Whether an active partition episode currently separates nodes [a]
    and [b].  Stateless in the random streams: group membership is a
    hash of (plan salt, episode, node id). *)

val partition_active : t -> bool
(** Whether any partition episode is currently active. *)

(** {1 Transfer-window faults} *)

val duplicated : t -> bool
(** Draws whether the current TRANSFER message is delivered twice.
    Consumes no randomness when [duplicate_prob <= 0]. *)

type window_crash =
  | No_crash
  | Crash_src  (** the heavy (sending) endpoint fail-stops *)
  | Crash_dst  (** the light (receiving) endpoint fail-stops *)

val crash_in_window : t -> window_crash
(** Draws whether a fail-stop crash strikes one endpoint between
    PREPARE and COMMIT of the current transfer transaction, and which.
    Consumes no randomness when [transfer_crash <= 0]. *)

(** {1 Crash and partition schedules} *)

val arm :
  t ->
  start:float ->
  horizon:float ->
  population:int ->
  crash:(rank:float -> unit) ->
  unit
(** Draws [round (crash_fraction * population)] crash events at
    plan-deterministic times uniform over [\[start, start + horizon)]
    and starts the plan's clock at [start], so a plan armed on a trace
    whose clock is past 0 keeps it running forwards.  Each fires
    [crash ~rank] with [rank] uniform in [\[0, 1)]: the victim is the
    rank-th of whatever nodes are alive at fire time, keeping the
    schedule meaningful as the population shrinks.

    Also draws [partitions] partition episodes, each starting at a
    plan-deterministic time uniform over the same span and healing
    exactly [partition_duration] later; while active, {!cut} and
    {!send_between} drop cross-group traffic.  Partition draws happen
    after all crash draws, so plans with [partitions = 0] consume
    exactly the crash stream.

    The draws are stored as one schedule sorted by time; equal times
    fire arm-time events in draw order, then heals in the order their
    partitions fired.  Re-arming replaces the schedule and restarts the
    clock; partitions already active stay active. *)

val clock : t -> float option
(** The armed plan's simulated time: [None] before {!arm}, then its
    [start], the time of the event being fired, or the last
    {!fire_until} time. *)

val fire_until : t -> time:float -> int
(** Fires, in schedule order, every unfired event at or before [time]
    (inclusive), then advances the clock to [time]; returns how many
    fired.  While an event fires, the clock and an attached trace
    ({!attach_obs}) read its time, so its ["fault/*"] point carries
    that timestamp.  Without {!arm} it fires nothing and returns 0. *)

(** {1 Counters} *)

val retries : t -> int
(** Retransmissions performed by {!send} so far. *)

val timeouts : t -> int
(** Sends abandoned after [max_attempts] attempts. *)

val drops : t -> int
(** Individual message-loss events (including retried ones). *)

val crashes : t -> int
(** Crash events fired so far by armed schedules. *)

val duplicates : t -> int
(** TRANSFER messages delivered twice so far. *)

val transfer_crashes : t -> int
(** Mid-transfer-window crashes injected so far. *)

val partition_drops : t -> int
(** Messages dropped at an active partition cut. *)

val partitions_formed : t -> int
(** Partition episodes that have started so far. *)
