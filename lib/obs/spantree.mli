(** Span-forest reconstruction and critical-path analytics.

    Rebuilds the tree of spans from a trace's event list — from the
    explicit parent id on every [Begin] event, validated against the
    replayed open-span set — then answers the
    convergence-profiling questions the flat {!Summary} tables cannot:
    which phase dominates a round's critical path, and how simulated
    time splits between a span and its children.

    Everything is deterministic: ordering derives from event order and
    typed sorts only, so the JSONL report is byte-identical across
    runs of the same seed (DESIGN.md §11). *)

type node = {
  nd_id : int;
  nd_name : string;
  nd_parent : int;  (** [-1] for a root *)
  nd_t0 : float;
  nd_t1 : float;
  nd_attrs : (string * Trace.value) list;
      (** begin attrs followed by end attrs *)
  nd_points : int;  (** point events attributed to this span *)
  nd_children : node list;  (** in begin order *)
}

val of_events : Trace.ev list -> (node list, string) result
(** The span forest (roots in begin order).  [Error] carries a
    diagnostic for malformed traces: a span that begins twice, ends
    twice, ends without beginning, never ends (unbalanced), or
    declares a parent id that is not an open span (orphan parent). *)

(** {1 Per-span figures} *)

val extent : node -> float
(** Simulated time covered by the span ([t1 - t0]). *)

val self_time : node -> float
(** {!extent} minus the children's extents, clamped at zero. *)

val n_spans : node list -> int
val depth : node list -> int

val critical_path : node -> node list
(** The chain from [root] downward that follows the longest-extent
    child at every level; ties break toward the earlier child. *)

(** {1 Rounds} *)

type round = { r_index : int; r_roots : node list }

val rounds : node list -> round list
(** Roots grouped into balancing rounds, sorted by index.  A root span
    named ["round"] is placed by its ["index"] attr; any other root
    (the bare phase spans of a single controller round) by
    [int_of_float t0],
    which matches the controller's one-unit-of-simulated-time-per-round
    layout. *)

val round_extent : round -> float
val round_critical_path : round -> node list

val phase_rows : node list -> (string * int * float * float) list
(** Per-name aggregates over every span under the given roots:
    (name, count, total extent, total self-time), sorted by name. *)

(** {1 Reports} *)

val render : ?phase:string -> ?round:int -> node list -> string
(** Human-readable report: per-round phase tables plus the critical
    path.  [?round] keeps one round, [?phase] one span name. *)

val to_jsonl : ?phase:string -> ?round:int -> node list -> string
(** Machine-readable report, one flat JSON object per line
    ([{"k":"forest",...}], [{"k":"round",...}], [{"k":"phase",...}])
    with canonical float spellings — byte-stable across runs. *)
