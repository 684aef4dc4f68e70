(** Rendezvous pairing of shed virtual servers with light nodes
    (paper §3.4).

    A KT node maintains two sorted collections: virtual servers
    offered by heavy nodes (sorted by load) and light nodes' spare
    capacities (sorted by deficit).  When their combined size reaches
    the rendezvous threshold (or at the root, unconditionally), it
    repeatedly picks the heaviest unassigned VS and matches it with
    the light node of {e smallest sufficient} deficit
    ([min ΔL_j] s.t. [ΔL_j >= L_{i,k}]); the light node's residual
    deficit is re-inserted if it is still at least [L_min].
    Unmatched entries propagate to the parent KT node. *)

type pool
(** A mergeable pair of sorted collections. *)

val empty : pool
val is_empty : pool -> bool

val of_entries : Types.shed_vs list -> Types.light_slot list -> pool

val of_slices :
  Types.shed_vs array -> int -> Types.light_slot array -> int -> pool
(** [of_slices sheds ns lights nl] equals
    [of_entries (prefix ns of sheds) (prefix nl of lights)] without
    intermediate lists — the constructor used by the VSA hot path on
    reusable scratch buffers. *)

val merge : pool -> pool -> pool

val size : pool -> int
(** Total entries (shed VSs + light slots) — compared against the
    rendezvous threshold. *)

val n_shed : pool -> int
val n_lights : pool -> int

val shed_entries : pool -> Types.shed_vs list
(** In decreasing load order. *)

val light_entries : pool -> Types.light_slot list
(** In increasing deficit order. *)

val pair : ?depth:int -> l_min:float -> pool -> Types.assignment list * pool
(** Runs the pairing loop to exhaustion; returns the assignments made
    and the pool of unmatched entries.  [l_min] is the system-wide
    minimum VS load from the LBI phase; [depth] (default 0) stamps the
    assignments with the rendezvous KT depth.

    The leftover keeps the light slots that survive, in deficit order,
    and the unpaired sheds in the order the loop met them: heaviest
    first, equal loads in the pool's own order.  No sort is needed.

    The leftover is {e settled} until it is merged with a non-empty
    pool: pairing it again cannot match anything, because every light
    slot that fits one of its sheds belongs to the shed's own node.
    Such a pass would leave every entry where it is, so [pair] of a
    settled pool is [([], pool)], in O(1). *)
