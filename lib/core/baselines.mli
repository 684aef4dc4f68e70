module Prng = P2plb_prng.Prng
module Dht = P2plb_chord.Dht
module Graph = P2plb_topology.Graph
module Histogram = P2plb_metrics.Histogram

(** Comparison baselines from the paper's related work (§1.1, §6).

    All operate on the same scenario state as {!Controller.run} and
    report the same moved-load-versus-distance histogram, so the bench
    harness can put them side by side with the paper's scheme.  All
    classify nodes with that scheme's default slack,
    [Controller.default.epsilon_rel].

    - {b CFS shedding} [3]: an overloaded node simply deletes virtual
      servers until it is below target; each deleted VS's region and
      load are absorbed by its successor, which may in turn become
      overloaded (the load-thrashing risk the paper cites).  Load
      "moves" to the ring successor, so transfer distance is the
      underlay distance to the successor's host.
    - {b Rao et al.} [5] virtual-server schemes, proximity-ignorant:
      {ul
      {- {e one-to-one}: random probing — a random light node asks a
         random node; on finding a heavy one, it takes that node's
         best-fitting VS.}
      {- {e one-to-many}: heavy nodes consult a random directory of
         light nodes and move their excess VSs to the best fits.}
      {- {e many-to-many}: a global pool matches all heavy excess VSs
         against all light capacities (best case for balance quality,
         still proximity-blind).}} *)

type result = {
  hist : Histogram.t;
  moved_load : float;
  transfers : int;
  heavy_before : int;
  heavy_after : int;
  rounds : int;  (** probing / shedding rounds actually used *)
}

val cfs_shed :
  oracle:Graph.Oracle.t ->
  'a Dht.t ->
  result
(** Iterates shedding sweeps until no node is heavy or 50 sweeps have
    run — non-convergence is the documented thrashing behaviour.  A
    node never sheds its last VS (CFS nodes stay in the ring). *)

val rao_one_to_one :
  rng:Prng.t ->
  oracle:Graph.Oracle.t ->
  'a Dht.t ->
  result
(** Stops after [64 * n] random probes. *)

val rao_one_to_many :
  rng:Prng.t ->
  oracle:Graph.Oracle.t ->
  'a Dht.t ->
  result
(** Each heavy node sees a random directory of 16 nodes, keeps the
    light ones and greedily places its shed VSs on them. *)

val rao_many_to_many :
  oracle:Graph.Oracle.t ->
  'a Dht.t ->
  result
(** Global pool, best-fit matching — equivalent to running the
    paper's rendezvous pairing once at a single global point, without
    proximity. *)
