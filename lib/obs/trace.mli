(** Deterministic structured tracing for load-balancing rounds.

    A trace is an append-only sequence of {e spans} (begin/end pairs)
    and {e point events}, each stamped with {b simulated} time — a
    logical clock the controller advances at its phase barriers and the
    fault plan sets while it fires an event — never the wall clock
    (p2plint rule R3).  Events
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

val set_time : t -> float -> unit
(** Sets the logical clock: the controller at its phase barriers, an
    armed fault plan while it fires an event. *)

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
(** [merge ~into child] appends the child's events to [into] as if
    they had been recorded next on it.  With [p] the clock of [into]
    at the call, each event's time becomes [p +. t], sequence numbers
    are offset by [into]'s event count and span ids by [into]'s span
    count ([-1] sentinels preserved), and [into]'s clock ends at [p]
    plus the child's clock.  A child that starts at 0 and never moves
    its clock backwards therefore lands on [into]'s timeline without
    running it backwards (DESIGN.md §12).  Raises [Invalid_argument]
    if the child still has open spans.  The child should be discarded
    afterwards. *)

(** {1 JSONL sink} *)

val float_to_string : float -> string
(** Shortest decimal spelling that round-trips the double — the
    canonical float format shared by the trace sink, the series sink
    and the metrics view ({!Spantree.totals}). *)

val json_string : string -> string
(** [s] as a quoted JSON string, escaped as the trace sink escapes
    names and attribute values: double quotes, backslashes and control
    characters.  Every hand-written JSON emitter quotes its strings
    with it. *)

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
    JSONL format built on it (bench records): each field is a scalar
    or one level of nested object. *)

type flat = Scalar of value | Nested of (string * value) list

val parse_flat_line : string -> ((string * flat) list, string) result
