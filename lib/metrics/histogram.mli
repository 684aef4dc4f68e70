(** Weighted histograms over integer bins and their CDFs.

    Figures 7–8 of the paper plot "percentage of total moved load"
    against "distance of virtual-server transfer in hops": that is a
    weighted histogram (weight = moved load, bin = hop distance) and
    its CDF.  Bins here are non-negative integers. *)

type t

val create : unit -> t

val add : t -> bin:int -> weight:float -> unit
(** Accumulates [weight] into [bin].  [bin >= 0], [weight >= 0]. *)

val total_weight : t -> float

val max_bin : t -> int
(** Largest bin with non-zero weight; [-1] if the histogram is empty. *)

val weight_at : t -> int -> float

val fraction_at : t -> int -> float
(** Share of total weight in one bin.  0 if the histogram is empty. *)

val cumulative_fraction : t -> int -> float
(** Share of total weight in bins [<= b] — the CDF the paper plots. *)

val percentile_bin : t -> float -> int
(** [percentile_bin t p] is the smallest non-empty bin at or below
    which at least [p]% of the total weight lies.

    Total on every input: an empty histogram answers [-1] for every
    [p]; [p] outside [\[0, 100\]] is clamped into the range (and NaN
    reads as 100, the conservative end).  [p = 0] is the first
    non-empty bin, [p = 100] the last — so [percentile_bin t 0.0] /
    [percentile_bin t 100.0] bracket the support of a non-empty
    histogram. *)

val bins : t -> (int * float) list
(** Non-empty bins in increasing order with their weights. *)

val mean : t -> float
(** The weighted mean bin (for Figs. 7–8, the load-weighted mean
    transfer distance): [bin * weight] summed over the non-empty bins
    in increasing order, over {!total_weight}.  0 if the histogram is
    empty. *)

val to_cdf : t -> (int * float) list
(** CDF sampled at each non-empty bin. *)

val merge : t -> t -> t
(** Pointwise sum; inputs unchanged.  Used to aggregate the 10 graph
    instances per topology, as the paper does. *)
