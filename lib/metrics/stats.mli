(** Summary statistics over float samples. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;  (** population standard deviation *)
  min : float;
  max : float;
  total : float;
}

val summarize : float array -> summary
(** Requires a non-empty array. *)

val mean : float array -> float
val stddev : float array -> float
val total : float array -> float

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in [\[0, 100\]], linear interpolation
    between order statistics.  Requires non-empty input.  Does not
    mutate its argument. *)

val median : float array -> float

val gini : float array -> float
(** Gini coefficient of inequality in [\[0, 1\]]: 0 = perfectly even,
    →1 = concentrated.  Requires non-negative samples with positive
    sum.  Used to quantify load-distribution fairness. *)

val max_over_mean : float array -> float
(** The classic load-imbalance factor: max load divided by mean load.
    Requires positive mean. *)

val jain_index : float array -> float
(** Jain's fairness index [(sum x)^2 / (n * sum x^2)] in
    [(0, 1\]]: 1 = perfectly fair, [1/n] = one node carries
    everything.  Requires non-negative samples with positive sum. *)

val lorenz : float array -> (float * float) list
(** Points of the Lorenz curve (population fraction, cumulative load
    fraction), one per sample plus the origin — what the Gini
    coefficient integrates.  Requires non-negative samples with
    positive sum. *)
