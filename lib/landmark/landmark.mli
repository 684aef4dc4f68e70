module Prng = P2plb_prng.Prng
module Id = P2plb_idspace.Id
module Graph = P2plb_topology.Graph
module Hilbert = P2plb_hilbert.Hilbert

(** Landmark clustering and proximity-preserving DHT keys (paper §4).

    Each node measures its distance to [m] landmark nodes (the paper
    uses [m = 15]); the resulting {e landmark vector} positions the
    node in an [m]-dimensional landmark space.  The landmark space is
    divided into [2{^(m * order)}] grid cells ([order] bits per axis)
    numbered along a Hilbert curve; a node's {e Hilbert number} is the
    curve index of its cell, and physically close nodes — having
    similar landmark vectors — get close Hilbert numbers.  Scaled into
    the 32-bit identifier space, the Hilbert number becomes the DHT
    key under which the node publishes its VSA information.  As in
    the paper, every landmark answers its probes: no fault plan makes
    one fail. *)

type space
(** Landmark positions plus precomputed distances from every landmark
    to every underlay vertex. *)

val select_random : Prng.t -> Graph.t -> m:int -> int array
(** [m] distinct landmark vertices chosen uniformly. *)

val select_spread : Prng.t -> Graph.t -> m:int -> int array
(** Farthest-point heuristic: a random first landmark, then each next
    landmark maximises its distance to those already chosen.  Gives
    better-conditioned landmark spaces on clustered topologies. *)

val make_space : Graph.t -> landmarks:int array -> space
(** Runs one Dijkstra per landmark, then sorts each landmark's
    distances for {!Quantile} binning: a counting sort over
    [\[0, max_distance\]] while that range is at most four times the
    vertex count, a comparison sort otherwise. *)

val m : space -> int
val landmarks : space -> int array

val vector : space -> int -> int array
(** [vector s v] is the landmark vector of underlay vertex [v]:
    distances (latency units) to each landmark, in landmark order. *)

val max_distance : space -> int
(** Largest finite landmark–vertex distance; defines grid scaling. *)

val sorted_distances : space -> int -> int array
(** [sorted_distances s l]: landmark [l]'s distances to every vertex in
    ascending order, unreachable ([max_int]) last — the axis whose
    quantiles bound {!Quantile} cells.  A fresh copy. *)

type binning =
  | Equal_width  (** cells of equal size over [\[0, max_distance\]] *)
  | Quantile
      (** cell boundaries at per-axis distance quantiles, computed over
          all vertices: every cell holds roughly the same number of
          vertices, so resolution concentrates where nodes actually
          differ *)

val grid_coords : ?binning:binning -> space -> order:int -> int -> int array
(** Landmark vector quantised to [order]-bit grid coordinates per
    axis (default {!Equal_width}). *)

val hilbert_number :
  ?curve:Hilbert.curve -> ?binning:binning -> space -> order:int -> int -> int
(** The curve index of the vertex's grid cell (default curve:
    {!Hilbert.Hilbert}).  Requires [m * order <= 62]. *)

val dht_key :
  ?curve:Hilbert.curve -> ?binning:binning -> space -> order:int -> int -> Id.t
(** The Hilbert number scaled onto the 32-bit ring: close Hilbert
    numbers map to close identifiers. *)

(** {1 Key table}

    A node's key depends only on its underlay vertex, the space,
    [curve], [order] and [binning], so a caller
    that keys many nodes — VSA, every round — reads it from a table
    instead of recomputing it. *)

type keys
(** One vertex-indexed table of {!dht_key}s for fixed [curve],
    [binning] and [order], filled on first read. *)

val keys :
  ?curve:Hilbert.curve -> ?binning:binning -> space -> order:int -> keys
(** The space's table for these parameters (defaults as in
    {!dht_key}).  The space keeps the table of its last call and hands
    it out again while the parameters are equal.  Other parameters
    start a fresh, empty table that replaces it, so parameters that
    change and then change back refill the table once more.
    Computing a key draws no randomness.

    A table and its space are not domain-safe: {!key} writes the
    table, and [keys] writes the space.  No two [Par] tasks share a
    space — [Scenario.build ~base] shares one between builds within a
    task. *)

val key : keys -> int -> Id.t
(** [key k v] = [dht_key ~curve ~binning space ~order v] for
    [k]'s parameters: one array read once [v] has been read before. *)
