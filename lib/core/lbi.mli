module Prng = P2plb_prng.Prng
module Dht = P2plb_chord.Dht
module Ktree = P2plb_ktree.Ktree
module Faults = P2plb_sim.Faults

(** Phase 1: load-balancing-information aggregation and dissemination
    (paper §3.2–§3.3).

    Every DHT node reports [<L_i, C_i, L_{i,min}>] through one
    randomly chosen virtual server to that VS's designated KT leaf;
    KT nodes combine reports bottom-up (sums for load and capacity,
    min for the minimum VS load), producing the system-wide
    [<L, C, L_min>] at the root, which is then disseminated top-down
    to every node.  Both directions take O(log_K N) rounds.

    The phase is churn-resilient: the tree is {!Ktree.repair}ed before
    each sweep so reports always find a live leaf, and every
    report/disseminate send goes through the fault plan's
    retry-with-timeout wrapper ([faults], default a quiet plan that
    delivers every send at its first attempt) — a report lost after
    all retries simply leaves its node out of this round's aggregate
    (the round degrades instead of stalling). *)

val exact : Dht.t -> Types.lbi
(** The system-wide [<L, C, L_min>] read off the ring directly, with
    no tree: what the baselines are granted (an optimistic assumption
    in their favour) and what the locality ceiling classifies by. *)

val aggregate :
  rng:Prng.t -> ?faults:Faults.t -> ?route_messages:bool ->
  ?sweep:Types.lbi Ktree.sweep -> Ktree.t -> Dht.t -> Types.lbi
(** Bottom-up aggregation over the current tree; returns the root's
    view.  Raises [Invalid_argument] if the DHT has no alive nodes.
    The reports go through a {!Ktree.Reports} log, swept with [sweep]
    (default: the skeleton of the leaves that received a report),
    whose lift is the identity; a test may pass a full walk of a
    reference tree instead.  A leaf without reports holds [<0, 0,
    infinity>], an exact identity of the combine for non-negative
    loads, so sweeping only the reporting leaves leaves every bit of
    the root unchanged. *)

val run :
  rng:Prng.t -> ?faults:Faults.t -> ?route_messages:bool ->
  Ktree.t -> Dht.t -> Types.lbi
(** {!aggregate} followed by the top-down push of the root LBI:
    {!Ktree.broadcast} charges its messages and rounds, and each of
    the [Ktree.n_leaves] leaves makes one reliable send to its
    reporting VS through [faults], in a loop; under a quiet plan each
    is delivered at its first attempt and draws nothing. *)
