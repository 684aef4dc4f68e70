(** The ids of a fresh ring's virtual servers, drawn in bulk.

    {!Dht.join} draws a VS id at salt 0, 1, ... until it misses every
    id already on the ring.  [sorted_keys] gives every draw of a batch
    the id that drawing them one at a time, in order, would give, with
    one radix sort instead of a lookup per draw. *)

val max_draws : int
(** [2{^30}]: a draw's index must fit the low 30 bits of a key. *)

val key_id : int -> int
(** The id of a packed key. *)

val key_draw : int -> int
(** The draw index of a packed key. *)

val sorted_keys : hash:(draw:int -> salt:int -> int) -> int -> int array
(** [sorted_keys ~hash n] is the id of each draw [0 .. n-1] as packed
    keys [(id lsl 30) lor draw], in ascending order: all ids distinct,
    draw [d]'s id the first [hash ~draw:d ~salt] for salt = 0, 1, ...
    that no draw before [d] holds.  [hash] must return ids in
    [\[0, 2{^32})].

    All salt-0 ids are packed and sorted at once by a stable
    4 × 8-bit LSD radix sort on the id bits, so equal ids sit in draw
    order; a later draw in a run of equal ids re-draws, in draw order.
    A re-drawn id is taken if an earlier draw that did not move holds
    it as its salt-0 id, or an earlier mover re-drew it; if it is the
    salt-0 id of a later draw, that draw moves too.  The keys are
    re-sorted only if something moved.  O(n) plus O(log n) per move.
    Raises [Invalid_argument] unless [0 <= n < max_draws]. *)
