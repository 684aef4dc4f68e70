module Prng = P2plb_prng.Prng
module Dht = P2plb_chord.Dht
module Graph = P2plb_topology.Graph
module Transit_stub = P2plb_topology.Transit_stub
module Landmark = P2plb_landmark.Landmark
module Workload = P2plb_workload.Workload

(** Experiment-network construction: one underlay topology, one Chord
    overlay with capacities and loads, one landmark space — the common
    setup of the paper's evaluation (§5.1). *)

type config = {
  n_nodes : int;  (** overlay (physical DHT) nodes; paper: 4096 *)
  vs_per_node : int;  (** initial virtual servers per node; paper: 5 *)
  topology : Transit_stub.params;
  workload : Workload.config;
  landmark_m : int;  (** landmark nodes; paper: 15 *)
  landmark_spread : bool;
      (** farthest-point landmark selection instead of uniform *)
}

val default : config
(** 4096 nodes x 5 VSs on ts5k-large, Gaussian loads, 15 random
    landmarks. *)

type t = {
  rng : Prng.t;  (** stream for load-balancing decisions *)
  dht : Types.vsa_record Dht.t;
  topo : Transit_stub.t;
  oracle : Graph.Oracle.t;
  space : Landmark.space;
  config : config;
}

exception Too_few_stubs of { stubs : int; n_nodes : int }
(** The topology drawn for a build has [stubs] stub vertices, fewer
    than the [n_nodes] overlay nodes asked for.  Stub-domain sizes are
    random, so the count is known only once the topology is drawn. *)

val build : ?base:t -> seed:int -> config -> t
(** Deterministic in [seed].  Overlay nodes attach to distinct stub
    vertices (end hosts); capacities follow the Gnutella profile;
    loads are drawn per the workload config.  Raises {!Too_few_stubs}
    when the topology provides fewer than [n_nodes] stub vertices.

    [base] donates the underlay topology, distance oracle and landmark
    space of a previous build — valid only when that build used the
    same [seed] and [config], where those parts are identical anyway
    (each derives from its own split of the master stream).  Skipping
    their reconstruction does not perturb the membership, load or
    load-balancing streams, and the shared oracle keeps its bridge
    decomposition and memoised rows across runs: built once per graph
    instance, not per re-build. *)

val join_nodes : t -> int -> unit
(** Churn: [join_nodes t n] adds [n] fresh nodes on random stub
    vertices (Gnutella capacities, [vs_per_node] VSs each).  Their
    virtual servers take over slices of existing regions and inherit
    the proportional share of load, so total load is preserved. *)

val crash_nodes : t -> int -> unit
(** Churn: fail-stop [n] random alive nodes.  A victim that fails
    {!Dht.can_depart} is spared, so the ring never empties. *)

val unit_loads : t -> float array
(** Load per capacity for each alive node, in node-id order — the
    y-values of the paper's Figure 4. *)

val loads_by_capacity : t -> (float * float) array
(** [(capacity, load)] per alive node — Figures 5 and 6. *)
