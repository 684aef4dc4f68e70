module Id = P2plb_idspace.Id

(** A CFS-style replicated object store over the DHT.

    Objects (key, size) are placed on the virtual server owning the
    key and replicated on the next [replication - 1] {e distinct
    physical nodes} along the ring (successor-list placement, as in
    CFS).  Churn invalidates placements; {!repair} re-replicates onto
    the current ring, counting the bytes copied, and detects objects
    whose every holder died — the durability experiments' metric.

    The store also grounds the abstract "load" of the balancing
    scheme: {!apply_primary_loads} sets every VS's load to the bytes
    it primarily stores, so moving a virtual server moves exactly its
    objects. *)

type t

val create : replication:int -> unit -> t
(** [replication >= 1] total holders per object (primary included). *)

val replication : t -> int
val n_objects : t -> int
val total_bytes : t -> float

val insert : t -> 'a Dht.t -> key:Id.t -> size:float -> unit
(** Places a fresh object.  [size >= 0].  Re-inserting a key adds a
    distinct object version under the same key. *)

val holders : t -> key:Id.t -> Dht.node_id list list
(** Current holder sets of the object versions under [key] (possibly
    stale until {!repair}); [[]] if unknown. *)

val is_available : t -> 'a Dht.t -> key:Id.t -> bool
(** At least one version under [key] has at least one alive holder. *)

type repair_stats = {
  objects_checked : int;
  re_replicated : int;  (** objects that gained at least one holder *)
  bytes_copied : float;
  lost : int;  (** objects dropped as unrecoverable in this pass *)
}

val repair : t -> 'a Dht.t -> repair_stats
(** Re-places every object on the current ring: primary = owner of
    the key, replicas = next distinct alive nodes.  Objects with no
    surviving holder are removed and counted as lost. *)

val availability : t -> 'a Dht.t -> float
(** Fraction of objects currently having an alive holder (1.0 when
    the store is empty). *)

val apply_primary_loads : t -> 'a Dht.t -> unit
(** Sets every VS's load to the total bytes of objects whose key falls
    in its region (zero elsewhere). *)
