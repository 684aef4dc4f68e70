module Histogram = P2plb_metrics.Histogram

(** Offline trace reading: span forest, per-round and whole-trace
    tables, point counts and the Fig. 7 hop histograms — the
    [lb_sim trace-analyze FILE] backend.

    Rebuilds the tree of spans from a trace's event list — from the
    explicit parent id on every [Begin] event, validated against the
    replayed open-span set — and answers which phase dominates a
    round's critical path and how simulated time splits between a span
    and its children.  The same pass counts point events per name and
    rebuilds the paper's Figure 7/8 histogram (moved load by underlay
    hop distance) from ["vst/transfer"] points, grouped by the ["mode"]
    attribute of the enclosing ["phase/vst"] span, without re-running
    the experiment.

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

type t = {
  roots : node list;  (** the span forest, roots in begin order *)
  point_counts : (string * int) list;
      (** point events per name, sorted by name *)
  hop_histograms : (string * Histogram.t) list;
      (** load-weighted hop histograms rebuilt from ["vst/transfer"]
          points ([hops] bin, [load] weight), one per enclosing span's
          ["mode"] (["all"] when untagged), sorted by mode *)
}

val of_events : Trace.ev list -> (t, string) result
(** The trace read in one pass.  [Error] carries a
    diagnostic for malformed traces: a span that begins twice, ends
    twice, ends without beginning, never ends (unbalanced), or
    declares a parent id that is not an open span (orphan parent). *)

val of_run : Trace.t -> t
(** A run's own trace, read as {!of_events} reads a file, except that a
    span still open (a run that raised mid-phase) ends at the trace's
    clock with the attrs it has.  Raises [Invalid_argument] on the
    other diagnostics, which only a misuse of {!Trace.end_span} (a span
    ended twice) can record. *)

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
(** Roots grouped into balancing rounds, sorted by index: every root
    (a ["round"] span, or the bare phase spans of a single controller
    round) by [int_of_float t0], the unit of simulated time it starts
    in, which matches the controller's one-unit-per-round layout.  So
    on a trace with several runs laid end to end, each round of each
    run has its own index; a ["round"] span's run-local ["index"] attr
    is not read. *)

val round_extent : round -> float

type phase_row = {
  p_name : string;
  p_count : int;
  p_time : float;  (** total extent *)
  p_self : float;  (** total self-time *)
  p_totals : (string * float) list;
      (** numeric attrs by key, sorted: summed, except the per-round
          snapshots ["depth"], ["nodes"] (a tree's size), ["heavy"],
          ["light"] and ["neutral"], which are the max, and ["index"]
          (the round key), which is dropped *)
}

val phase_rows : node list -> phase_row list
(** Per-name aggregates over every span under the given roots, sorted
    by name. *)

(** {1 Totals view} — the [--metrics-out] file

    The whole-trace figures of {!render}'s span table, point counts
    and hop-cost section, as sorted ["name = value"] rows in
    {!Trace.float_to_string}'s spelling, so they are digest-stable and
    the trace stays a run's one recorder. *)

val totals : t -> (string * string) list
(** Sorted by name: each span name's count ([phase/vst = 77]) and its
    attr totals as {!phase_rows} folds them
    ([phase/vst.messages = 6244591]), each point name's count
    ([vst/transfer = 76488]), and each mode's hop histogram
    ([vst/transfer.hops.aware = total=… max_bin=… p50=… p99=…],
    ["empty"] when it holds no weight). *)

val dump_totals : t -> string
(** {!totals} as ["name = value"] lines. *)

val write_totals : Trace.t -> path:string -> unit
(** {!dump_totals} of {!of_run} to a file. *)

(** {1 Reports} *)

val render : ?phase:string -> ?round:int -> t -> string
(** Human-readable report: per-round phase tables with their critical
    paths, then the whole-trace sections — one span table over every
    root with attr totals, the point-event counts, and the hop-cost
    table with its ASCII CDF plot.  [?round] keeps one round's table;
    [?phase] keeps one span name in both span tables.  The point
    counts and hop-cost section always cover the whole trace. *)

val to_jsonl : ?phase:string -> ?round:int -> t -> string
(** Machine-readable report, one flat JSON object per line
    ([{"k":"forest",...}], [{"k":"round",...}], [{"k":"phase",...}],
    then [{"k":"point","name":...,"count":...}] per point name and
    [{"k":"hops","mode":...,"bin":...,"load":...}] per non-empty bin)
    with canonical float spellings — byte-stable across runs.  The
    filters act as in {!render}. *)
