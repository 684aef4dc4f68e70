(** Deterministic pseudo-random number generation.

    All randomness in the simulator flows through values of type {!t},
    threaded explicitly.  The generator is SplitMix64 (Steele, Lea &
    Flood, OOPSLA 2014): tiny state, excellent statistical quality for
    simulation purposes, and a cheap {!split} operation that derives an
    independent stream — which lets every subsystem own its own stream
    without accidental correlation. *)

type t
(** A mutable pseudo-random stream. *)

val create : seed:int -> t
(** [create ~seed] makes a fresh stream.  Equal seeds give equal
    streams. *)

val copy : t -> t
(** [copy t] is a stream that will produce the same future outputs as
    [t] without affecting it. *)

val split : t -> t
(** [split t] advances [t] and returns a new stream statistically
    independent from [t]'s subsequent output. *)

val bits64 : t -> int64
(** [bits64 t] is the next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be
    positive.  Unbiased (rejection sampling).  Allocates nothing. *)

val int_in : t -> lo:int -> hi:int -> int
(** [int_in t ~lo ~hi] is uniform in [\[lo, hi\]] inclusive.
    Requires [lo <= hi].  Allocates nothing. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val unit_float : t -> float
(** [unit_float t] is uniform in [\[0, 1)] with 53-bit precision. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [unit_float t < p], from the same single draw,
    but allocates nothing: dune's dev profile compiles this library
    [-opaque], so a float it returns to a caller is boxed. *)

val bool : t -> bool
(** A fair coin flip. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle.  Allocates nothing. *)

val sample_distinct : t -> n:int -> universe:int -> int array
(** [sample_distinct t ~n ~universe] draws [n] distinct integers
    uniformly from [\[0, universe)].  Requires [n <= universe].
    The result is in random order. *)

val choose : t -> 'a array -> 'a
(** [choose t a] is a uniformly random element of [a], which must be
    non-empty.  Allocates nothing. *)
