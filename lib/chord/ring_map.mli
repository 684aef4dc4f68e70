module Id = P2plb_idspace.Id

(** Ordered map over ring identifiers with wrap-around range folds —
    the key store behind {!Store}. *)

type 'a t

val empty : 'a t
val add : Id.t -> 'a -> 'a t -> 'a t
val find_opt : Id.t -> 'a t -> 'a option
val fold : (Id.t -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
val iter : (Id.t -> 'a -> unit) -> 'a t -> unit

val fold_range :
  lo_incl:Id.t -> len:int -> (Id.t -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** Folds over bindings whose key lies in the clockwise arc
    [\[lo_incl, lo_incl + len)], wrapping.  [len] in
    [\[0, Id.space_size\]]. *)
