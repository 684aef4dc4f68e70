(** A bucket index over a sorted array of ring ids: constant-time
    successor searches for {!Dht}.

    For [n] ids the index splits the 32-bit id space into [2{^b}]
    buckets by the top [b] id bits, the largest [b] with
    [2{^b} <= n] (one bucket below two ids), and stores for each
    bucket the index of its first id.  A search reads two entries and
    binary-searches the ids of one bucket: about one id per bucket
    while the ids are spread evenly, as hashed VS ids are.

    The index is lazy.  It remembers the [version] it was built for
    and rebuilds, in O([n] + [2{^b}]), on the first search that passes
    another one; so a burst of inserts or deletes between searches
    costs one rebuild, not one per change.  The caller owns the
    contract that the ids have not changed while the version has
    not. *)

type t

val create : unit -> t
(** An index that rebuilds on its first search. *)

val lower_bound : t -> version:int -> int array -> int -> int -> int
(** [lower_bound t ~version ids n k]: the index of the first of the
    ascending [ids.(0 .. n-1)] that is [>= k], or [n] if none — the
    same as a binary search over all [n] ids.  [k] must be in
    [\[0, 2{^32})]. *)

val lower_bound_in : int array -> int -> int -> int -> int
(** [lower_bound_in ids k lo hi]: the plain binary search over
    [ids.(lo .. hi-1)], returning [hi] if no id there is [>= k] — the
    reference the index must agree with, and the search for callers
    that must not trigger a rebuild. *)
