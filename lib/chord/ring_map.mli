module Id = P2plb_idspace.Id

(** Ordered map over ring identifiers with wrap-around successor and
    predecessor queries — the data structure behind the simulated
    Chord ring and its key-indexed storage. *)

type 'a t

val empty : 'a t
val is_empty : 'a t -> bool
val cardinal : 'a t -> int
val add : Id.t -> 'a -> 'a t -> 'a t
val remove : Id.t -> 'a t -> 'a t
val find_opt : Id.t -> 'a t -> 'a option
val mem : Id.t -> 'a t -> bool

val successor : Id.t -> 'a t -> (Id.t * 'a) option
(** First binding at or clockwise-after the key, wrapping; [None] only
    when empty.  This is Chord's [successor(k)]: the owner of key [k]. *)

val successor_strict : Id.t -> 'a t -> (Id.t * 'a) option
(** First binding strictly clockwise-after the key, wrapping. *)

val predecessor_strict : Id.t -> 'a t -> (Id.t * 'a) option
(** First binding strictly clockwise-before the key, wrapping. *)

val fold : (Id.t -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
val iter : (Id.t -> 'a -> unit) -> 'a t -> unit

val fold_range :
  lo_incl:Id.t -> len:int -> (Id.t -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** Folds over bindings whose key lies in the clockwise arc
    [\[lo_incl, lo_incl + len)], wrapping.  [len] in
    [\[0, Id.space_size\]]. *)
