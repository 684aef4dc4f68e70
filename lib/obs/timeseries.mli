(** Per-round load time-series and the convergence detector.

    {!Controller.run} records one {!sample} at the end of each
    balancing round (after transfers commit) into the bundle's series
    sink — separate from the trace, so trace digest pins (and the
    [--metrics-out] view of the trace) are untouched.  The JSONL
    encoding shares the trace sink's canonical float spelling and is
    byte-identical across runs with the same seed; {!digest} is the
    one-call replay check the acceptance criteria gate on (DESIGN.md
    §11).

    The detector implements the paper's convergence criterion: the
    system is balanced once max unit load / fair share is at most
    [1 + eps]. *)

type sample = {
  ts_round : int;
  ts_time : float;  (** simulated time at the end of the round *)
  ts_live : int;  (** nodes contributing unit loads *)
  ts_max : float;  (** max unit load *)
  ts_fair : float;  (** avg utilization: total load / total capacity *)
  ts_ratio : float;  (** max / fair; 0 when fair is degenerate *)
  ts_gini : float;  (** Gini coefficient of the unit-load distribution *)
  ts_over : float;  (** fraction of live nodes above [(1+eps) * fair] *)
  ts_eps : float;  (** relative epsilon the sample was judged with *)
  ts_moved : float;  (** load moved this round *)
  ts_cum : float;  (** cumulative load moved *)
  ts_load : float;  (** total system load *)
}

type t

val create : unit -> t
val samples : t -> sample list

val record :
  t ->
  round:int ->
  time:float ->
  epsilon:float ->
  unit_loads:float array ->
  fair:float ->
  moved:float ->
  total_load:float ->
  sample
(** Computes the derived statistics, accumulates the cumulative moved
    load, appends and returns the sample. *)

val merge : into:t -> offset:float -> t -> unit
(** Appends the child's samples to [into] as if they had been recorded
    next on it (DESIGN.md §12): each [ts_time] shifted by [offset] (the
    clock of [into]'s trace, see {!Obs.merge}), each [ts_round] by the
    whole rounds in [offset], and each [ts_cum] re-derived from
    [into]'s running cumulative total. *)

(** {1 Pure statistics} (usable without a collector, e.g. by Chaos) *)

val ratio : unit_loads:float array -> fair:float -> float

(** {1 Convergence detector} *)

type verdict =
  | No_data
  | Converged of { c_round : int; c_ratio : float; c_moved_frac : float }
      (** first round whose max/avg ratio is at most [1 + eps], with
          the cumulative moved load as a fraction of total load *)
  | Not_converged of {
      n_rounds : int;
      n_final_ratio : float;
      n_best_ratio : float;
      n_diverging : bool;  (** final ratio exceeds the first round's *)
    }

val convergence : sample list -> verdict

(** {1 JSONL sink} *)

val jsonl_of_samples : sample list -> string
(** One flat JSON object per sample, canonical float spellings —
    byte-stable across runs. *)

val to_jsonl : t -> string
val digest : t -> string
val write : t -> path:string -> unit

val render : sample list -> string
(** Aligned table of the series followed by the verdict line. *)
