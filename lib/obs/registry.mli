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

val create : unit -> t

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
(** Get-or-create. *)

val hist_add : t -> string -> bin:int -> weight:float -> unit
(** [Histogram.add] on the named series. *)

(** {1 Task merge} — parallel execution support (DESIGN.md §12) *)

val merge : into:t -> t -> unit
(** Adds [child]'s totals to [into], name by name: each counter's
    count, each gauge's value and each histogram's bin weights.  A
    series the child created but never updated is created in [into]
    too, as it would have been had the child recorded on [into]. *)

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
