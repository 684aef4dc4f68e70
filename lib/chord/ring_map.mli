module Id = P2plb_idspace.Id

(** Ordered map over ring identifiers — the key store behind
    {!Store}. *)

type 'a t

val empty : 'a t
val add : Id.t -> 'a -> 'a t -> 'a t
val find_opt : Id.t -> 'a t -> 'a option
val fold : (Id.t -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
val iter : (Id.t -> 'a -> unit) -> 'a t -> unit

