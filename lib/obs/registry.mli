module Histogram = P2plb_metrics.Histogram

(** Named counters, gauges and histograms for load-balancing rounds.

    Handles are get-or-create by name, so independently instrumented
    subsystems (faults, KT repair, VST) share series without plumbing.
    The dump ({!rows}) is sorted by name and rendered with canonical
    number formats, so it is digest-stable across runs regardless of
    hash layout or creation order — the metrics twin of
    [Trace.digest].

    Histograms are {!P2plb_metrics.Histogram} values, so everything
    that already consumes them (CSV export, CDF rendering, percentile
    bins) works on registry series unchanged.  In particular
    [Histogram.percentile_bin] is total: empty series answer [-1] for
    every percentile, NaN and out-of-range percentiles are clamped
    into [\[0, 100\]], [p = 0] is the first non-empty bin and
    [p = 100] the last — report code can query registry histograms
    without guarding against partial inputs. *)

type t

type counter
type gauge

val create : ?journal:bool -> unit -> t
(** [~journal:true] records every update in an ordered op journal so
    the registry can later be {!merge}d into another one with
    bit-exact float accumulation.  Off by default (sequential runs
    never pay for it). *)

(** {1 Counters} — monotonic integers *)

val counter : t -> string -> counter
(** Get-or-create. *)

val add : counter -> int -> unit
val count : counter -> int

(** {1 Gauges} — accumulated floats *)

val gauge : t -> string -> gauge
(** Get-or-create; initial value 0. *)

val accum : gauge -> float -> unit

val value : gauge -> float

(** {1 Histograms} *)

val histogram : t -> string -> Histogram.t
(** Get-or-create.  Read-only access for reports; {e updates} must go
    through {!hist_add} so journaled registries see them (a direct
    [Histogram.add] on the returned value bypasses the journal and
    would be lost by {!merge}). *)

val hist_add : t -> string -> bin:int -> weight:float -> unit
(** [Histogram.add] on the named series, journaled when the registry
    is. *)

(** {1 Task merge} — parallel execution support (DESIGN.md §12) *)

val merge : into:t -> t -> unit
(** Replays [child]'s op journal into [into], in the order the child
    executed the updates.  Because replay re-performs each counter
    add, gauge accum and histogram add rather than combining totals,
    merging journaled task registries in task-index order leaves
    [into] bit-identical — digest included — to having run the tasks
    sequentially against it.
    A child created without [~journal:true] has an empty journal, so
    merging it is a no-op. *)

(** {1 Lookup} — for reports over a finished run *)

val find_counter : t -> string -> int option
val find_gauge : t -> string -> float option
val find_histogram : t -> string -> Histogram.t option

(** {1 Digest-stable dump} *)

val rows : t -> (string * string) list
(** All series, sorted by name, values rendered canonically
    (histograms as [total/max_bin/p50/p99]). *)

val digest : t -> string
(** Hex digest of {!rows} as ["name = value"] lines. *)

val write : t -> path:string -> unit
