(** Summary statistics over float samples. *)

val total : float array -> float

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in [\[0, 100\]], linear interpolation
    between order statistics.  Requires non-empty input.  Does not
    mutate its argument. *)

val gini : float array -> float
(** Gini coefficient of inequality in [\[0, 1)]: 0 = perfectly even,
    →1 = concentrated; 0 for empty or zero-sum input.  Raises
    [Invalid_argument] on a negative sample.  Quantifies how evenly
    unit load is spread (Fig. 4/6 and the per-round series). *)
