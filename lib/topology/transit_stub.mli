module Prng = P2plb_prng.Prng

(** GT-ITM-style transit-stub Internet topologies.

    The paper evaluates on two ~5000-node transit-stub topologies
    produced by GT-ITM (§5.1).  GT-ITM itself is a C tool we cannot
    run here, so this module reimplements its transit-stub model with
    the published parameters (see DESIGN.md, Substitutions):

    - a top level of transit domains connected as a random connected
      graph;
    - each transit domain is a random connected graph of transit nodes;
    - each transit node has some stub domains attached, each stub
      domain a small random connected graph with one edge up to its
      transit node.

    Edge weights follow the paper: interdomain hops (transit–transit
    across domains, stub–transit attachment) cost 3 latency units,
    intradomain hops cost 1. *)

type params = {
  intra_latency : int;
      (** latency-graph weight of an intradomain edge (default 0: LAN
          latency is negligible next to WAN RTTs, so all nodes of a
          stub domain measure identical landmark vectors) *)
  transit_domains : int;        (** number of transit domains *)
  transit_nodes_per_domain : int;
  stub_domains_per_transit : int;
  mean_stub_size : int;         (** average nodes per stub domain *)
  top_edge_prob : float;
      (** per-pair edge probability of the top-level graph over
          transit domains (a spanning tree guarantees connectivity) *)
  transit_edge_prob : float;
      (** per-pair edge probability inside a transit domain *)
  stub_edge_prob : float;
      (** per-pair edge probability inside a stub domain — GT-ITM stub
          domains are dense (default 0.42), so intra-domain paths are
          short (1–2 edges) *)
  attachment_weight : int;
      (** hop-metric weight of the stub-to-transit attachment edge;
          3 (default) follows the paper's rule that every interdomain
          hop costs 3 units. *)
  interdomain_weight_spread : int;
      (** per-edge latency jitter on interdomain links in the
          {e latency graph} only: each interdomain edge's latency is
          [(interdomain_weight + U{0..spread}) * rtt_scale].  Mimics
          GT-ITM's randomised routing weights; it differentiates stub
          domains that share a transit node, which landmark clustering
          needs (under perfectly flat weights two such domains have
          mathematically identical landmark vectors). *)
  rtt_scale : int;
      (** WAN/LAN latency ratio of the latency graph: interdomain edges
          cost [~ 3 * rtt_scale] there while intradomain edges cost 1,
          reflecting that real RTT measurements are dominated by WAN
          segments (the paper's 3:1 rule is its {e hop-count} metric
          for reporting transfer cost, not a latency model). *)
}

val ts5k_large : params
(** 5 transit domains, 3 transit nodes each, 5 stub domains per
    transit node, ~60 nodes per stub domain: overlay nodes concentrated
    in a few big stub domains. *)

val ts5k_small : params
(** 120 transit domains, 5 transit nodes each, 4 stub domains per
    transit node, ~2 nodes per stub domain: overlay nodes scattered
    across the whole Internet. *)

val scaled : n:int -> params
(** Parameters for the scale tier: enough stub vertices for an
    [n]-node overlay (~30% headroom, many ~10-node stub domains on an
    8x4 transit core), with generation cost linear in [n].  Used by
    the 32k/65k/131k-node experiments, far beyond the paper's ~5000
    vertices. *)

type role =
  | Transit of { domain : int }
  | Stub of { domain : int; transit_of : int }
      (** [transit_of] is the vertex id of the transit node to which
          this stub's domain is attached. *)

type t = {
  graph : Graph.t;
      (** the paper's hop-count metric: intradomain edge = 1 unit,
          interdomain edge = 3 units.  Transfer costs (Figs. 7–8) are
          measured here. *)
  latency_graph : Graph.t;
      (** same edges, RTT-like weights: a stub-domain edge weighs
          [intra_latency] (0 in every preset), any other edge its hop
          weight times [rtt_scale] plus jitter.  Landmark vectors are
          measured here, as a real deployment would measure RTTs.  Both
          graphs come from one {!Graph.freeze2}, so they share their
          rows and differ only in weights. *)
  roles : role array;
  params : params;
  transit_vertices : int array;
  stub_vertices : int array;
}

val interdomain_weight : int
(** 3, the paper's base latency units per interdomain hop. *)

val intradomain_weight : int
(** 1. *)

val generate : Prng.t -> params -> t
(** Generates one topology instance.  Stub domain sizes are drawn
    uniformly in [\[1, 2 * mean_stub_size - 1\]] so the mean matches
    [mean_stub_size].  The result is always connected. *)

val stub_domain_of : t -> int -> int option
(** The stub-domain id of a vertex, if it is a stub vertex. *)
