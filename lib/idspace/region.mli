(** Contiguous arcs of the identifier ring.

    A region is a half-open clockwise arc [\[start, start + len)] with
    wrap-around.  Lengths range over [\[0, Id.space_size\]]; a region of
    length [Id.space_size] is the whole ring (the KT root's
    responsibility), length [0] is empty.

    Regions model both a virtual server's responsibility (the arc
    between its predecessor and itself) and a K-nary tree node's
    responsibility (§3.1 of the paper). *)

type t = private { start : Id.t; len : int }

val make : start:Id.t -> len:int -> t
(** [make ~start ~len] requires [0 <= len <= Id.space_size]. *)

val whole : t
(** The full ring — the KT root's region. *)

val empty_at : Id.t -> t

val is_empty : t -> bool
val is_whole : t -> bool
val len : t -> int
val start : t -> Id.t

val last : t -> Id.t
(** Last identifier contained ([start + len - 1]).  Requires the
    region to be non-empty. *)

val contains : t -> Id.t -> bool

val covers : outer:t -> inner:t -> bool
(** [covers ~outer ~inner]: every point of [inner] lies in [outer].
    The empty region is covered by everything. *)

val center : t -> Id.t
(** The centre point of the region — the DHT key at which a KT node
    responsible for this region is planted (§3.1).  Requires the region
    to be non-empty. *)

val split : t -> int -> t array
(** [split r k] partitions [r] into [k] consecutive parts whose sizes
    differ by at most one (the first [len mod k] parts get the extra
    point), preserving order.  The [i]-th part is the [i]-th child's
    responsibility in the K-nary tree.  Requires [k >= 1]. *)

val between_excl_incl : lo:Id.t -> hi:Id.t -> t
(** The arc [(lo, hi\]] as a region: a virtual server with id [hi] and
    predecessor [lo] is responsible for exactly this.  When [lo = hi]
    the region is the whole ring. *)

val overlap_len : t -> t -> int
(** Number of identifiers in the intersection of two regions. *)

val equal : t -> t -> bool
