(** Points of the 32-bit circular DHT identifier space.

    Identifiers are integers in [\[0, 2{^32})] living on a ring;
    arithmetic wraps modulo [2{^32}].  OCaml's native [int] (63-bit)
    holds them exactly. *)

type t = int
(** An identifier.  Invariant: [0 <= t < space_size]. *)

val bits : int
(** Number of identifier bits (32). *)

val space_size : int
(** [2{^bits}], i.e. the number of points on the ring. *)

val zero : t

val of_int : int -> t
(** [of_int n] reduces [n] modulo [space_size] (result non-negative). *)

val add : t -> int -> t
(** Ring addition. *)

val sub : t -> int -> t
(** Ring subtraction. *)

val distance_cw : t -> t -> int
(** [distance_cw a b] is the clockwise distance from [a] to [b]:
    the unique [d] in [\[0, space_size)] with [add a d = b]. *)

val in_range_excl_incl : t -> lo:t -> hi:t -> bool
(** [in_range_excl_incl x ~lo ~hi] tests membership of [x] in the
    clockwise interval [(lo, hi\]] — the Chord convention for "key [x]
    belongs to the node with id [hi] whose predecessor is [lo]".
    When [lo = hi] the interval is the whole ring. *)

val in_range_excl_excl : t -> lo:t -> hi:t -> bool
(** Membership in the open clockwise interval [(lo, hi)].  Empty when
    [hi = add lo 1]; the whole ring minus [lo] when [lo = hi]. *)

val midpoint_cw : t -> t -> t
(** [midpoint_cw a b] is the point halfway along the clockwise arc
    from [a] to [b]. *)

val of_fraction : float -> t
(** [of_fraction f] maps [f] in [\[0, 1\]] to a ring point by scaling;
    [1.0] wraps to [zero]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash_key : t -> string -> t
(** [hash_key salt s] deterministically hashes a string (plus an
    integer salt) onto the ring — the simulator's stand-in for SHA-1
    in [put]/[get] and virtual-server id derivation.  FNV-1a based. *)

val pp : Format.formatter -> t -> unit
(** Prints as zero-padded hex, e.g. [0x0a1b2c3d]. *)
