(** Deterministic structured tracing for load-balancing rounds.

    A trace is an append-only sequence of {e spans} (begin/end pairs)
    and {e point events}, each stamped with {b simulated} time — the
    engine clock when one is attached, or a manually advanced logical
    clock otherwise — never the wall clock (p2plint rule R3).  Events
    carry a sequence number, so the in-memory form is totally ordered
    and the JSONL sink is byte-identical across runs with the same
    seed: [digest] is a replay check in one call.

    Span naming convention (see DESIGN.md §8): phase spans are
    ["phase/<name>"] (e.g. ["phase/vsa"]), point events are
    ["<subsystem>/<event>"] (e.g. ["vst/transfer"], ["fault/drop"],
    ["kt/replant"]).  Point events are attributed to the innermost
    open span, which is how {!Spantree} groups per-transfer hop costs
    by the round mode recorded on the enclosing ["phase/vst"] span. *)

type value = Bool of bool | Int of int | Float of float | Str of string

type kind = Point | Begin | End

type ev = {
  time : float;  (** simulated time at recording *)
  seq : int;  (** recording order, 0-based, gap-free *)
  kind : kind;
  name : string;
  span : int;
      (** [Begin]/[End]: the span's own id; [Point]: the id of the
          innermost open span, or [-1] outside any span *)
  parent : int;
      (** [Begin]: the id of the enclosing open span at the moment the
          span was opened, or [-1] for a root span.  [Point]/[End]
          carry [-1] (a point's enclosing span is already in [span]). *)
  attrs : (string * value) list;  (** in recording order *)
}

type span
(** A handle for an open span, to be passed to {!end_span}. *)

type t

val create : unit -> t
(** A fresh trace with a manual clock at time 0. *)

val set_clock : t -> (unit -> float) -> unit
(** Installs a clock — always the simulation engine's [Engine.now],
    never a wall-clock read.  Replaces manual time. *)

val set_time : t -> float -> unit
(** Advances the manual logical clock (engine-less runs advance it at
    the controller's phase barriers).  Uninstalls any clock. *)

val preset_time : t -> float -> unit
(** Sets the manual clock {e without} counting as a clock touch: events
    recorded before the first {!set_clock}/{!set_time} are treated as
    preset-stamped and re-stamped onto the parent's running clock by
    {!merge}.  Used by task bundles ({!Obs.create_task}), whose true
    start time is only known once the preceding tasks have run. *)

val now : t -> float

val point : t -> ?attrs:(string * value) list -> string -> unit

val begin_span : t -> ?attrs:(string * value) list -> string -> span

val end_span : t -> ?attrs:(string * value) list -> span -> unit
(** Closing a span that is not the innermost open one is allowed (the
    stack entry is removed wherever it sits). *)

val with_span : t -> ?attrs:(string * value) list -> string -> (unit -> 'a) -> 'a
(** Braces [f] in a span; the span is closed (without end attributes)
    even if [f] raises. *)

val events : t -> ev list
(** The stable in-memory form: all events in recording order. *)

val n_events : t -> int

val merge : into:t -> t -> unit
(** [merge ~into child] appends the child's events to [into], offsetting
    sequence numbers by [into]'s event count and span ids by [into]'s
    span count ([-1] sentinels preserved), and leaves [into]'s manual
    clock at the child's final time (an untouched child leaves [into]'s
    clock alone).  Events the child recorded before it first touched
    its own clock are re-stamped with [into]'s clock at merge time —
    the value the shared clock would have held when a sequential run
    recorded them.  Merging finished task traces in task-index order
    therefore yields a trace byte-identical — digest included — to
    recording the same events sequentially on [into] (DESIGN.md §12).
    Raises [Invalid_argument] if the child still has open spans.  The
    child should be discarded afterwards. *)

(** {1 JSONL sink} *)

val float_to_string : float -> string
(** Shortest decimal spelling that round-trips the double — the
    canonical float format shared by the trace sink and the registry
    dump. *)

val to_jsonl : t -> string
(** The [{"v":2}] schema header line, then one JSON object per event:
    [{"t":0.2,"seq":5,"kind":"point","name":"vst/transfer","span":3,
      "attrs":{"hops":2,"load":1.5}}].  [Begin] events carry
    [,"parent":N] after ["span"].  Floats use the shortest
    round-tripping decimal form, so the output is byte-stable and
    {!parse_jsonl} recovers exact values. *)

val jsonl_of_events : ev list -> string
(** {!to_jsonl} over an explicit event list — the re-emission half of
    the byte-identical round-trip. *)

val write_jsonl : t -> path:string -> unit

val digest : t -> string
(** Hex digest of {!to_jsonl} — the replay-equality check. *)

val parse_jsonl : string -> (ev list, string) result
(** Inverse of {!to_jsonl} (empty lines skipped).  A non-empty source
    must open with the [{"v":2}] header: a headerless (v1) trace or
    any other version is an [Error] naming the header. *)

val load_jsonl : string -> (ev list, string) result
(** {!parse_jsonl} on a file's contents.  [Error] carries a one-line
    diagnostic (missing file, missing header, or the offending line
    number) — callers such as [lb_sim trace-analyze] turn it into
    exit code 1. *)

(** {1 Flat-line JSON view}

    The sink's one-object-per-line subset, exposed for the sibling
    JSONL formats built on it ({!Timeseries} samples, bench records):
    each field is a scalar or one level of nested object. *)

type flat = Scalar of value | Nested of (string * value) list

val parse_flat_line : string -> ((string * flat) list, string) result
