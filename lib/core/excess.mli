(** Choosing which virtual servers a heavy node sheds (paper §3.4).

    A heavy node [i] with load [L_i] and target [T_i] picks a subset of
    its virtual servers minimising the total shed load, subject to the
    residual load being at most [T_i] — i.e. a minimum subset-sum at
    least [need = L_i - T_i].  Minimising the shed total minimises the
    load moved system-wide.

    For small VS counts (the common case; nodes start with 5) we solve
    exactly by subset enumeration; beyond {!exact_threshold} VSs we
    take the best of three greedy candidates (cheapest single cover,
    ascending accumulation, keep-side greedy), which is within a small
    constant of optimal in practice. *)

val exact_threshold : int
(** 16: exact enumeration below, greedy at or above. *)

val choose_shed :
  ?keep_at_least:int -> loads:('a * float) array -> float -> ('a * float) list
(** [choose_shed ~loads need] returns the virtual servers to shed.  A
    server is any payload paired with its load: the choice reads only
    the loads and carries the payloads through.

    - If [need <= 0], returns [].
    - Never sheds more than [Array.length loads - keep_at_least]
      servers ([keep_at_least] defaults to 1: a node must keep at
      least one VS to stay in the DHT).
    - If covering [need] is impossible under that constraint, sheds
      the largest allowed subset (best effort).
    - Loads must be non-negative. *)

val shed_total : ('a * float) list -> float
