module Prng = P2plb_prng.Prng
module Id = P2plb_idspace.Id
module Dht = P2plb_chord.Dht
module Ktree = P2plb_ktree.Ktree
module Landmark = P2plb_landmark.Landmark
module Hilbert = P2plb_hilbert.Hilbert
module Faults = P2plb_sim.Faults

(** Phase 3: virtual-server assignment (paper §3.4 and §4.3).

    Heavy nodes select the minimal set of virtual servers to shed
    ({!Excess}); heavy and light nodes inject VSA records at the KT
    leaves; rendezvous pairing ({!Pairing}) runs bottom-up along the
    tree, pairing earlier the records that are closer in identifier
    space.

    Two report-injection modes:

    - {b Proximity-ignorant} (§3.4): a node hands its records to a
      random one of its own VSs, whose designated leaf receives them —
      so proximity in the identifier space is accidental.
    - {b Proximity-aware} (§4.3): a node publishes its records into
      the DHT keyed by its landmark-vector Hilbert number; each VS
      reports the records that landed in its region to its designated
      leaf.  Physically close nodes' records are then adjacent in
      identifier space and pair at low rendezvous points. *)

type mode =
  | Ignorant
  | Aware of {
      space : Landmark.space;
      order : int;
      curve : Hilbert.curve;
      binning : Landmark.binning;
    }

type result = {
  assignments : Types.assignment list;
  unassigned : Pairing.pool;  (** still unmatched at the root *)
  n_heavy : int;
  n_light : int;
  n_neutral : int;
  shed_offered : int;     (** VSs offered by heavy nodes *)
  load_offered : float;
  publish_hops : int;     (** overlay hops spent publishing (aware mode) *)
  direct_messages : int;  (** rendezvous→endpoint notifications *)
  rounds : int;
  stale_dropped : int;
      (** records dropped at rendezvous because their reporter died (or
          its shed VS vanished/changed owner) mid-round *)
  records_lost : int;
      (** records whose publication/report timed out after all retries *)
  assignments_lost : int;
      (** pairings abandoned because an endpoint notification timed out *)
}

val default_threshold : int
(** 30, the rendezvous threshold the paper suggests. *)

val run :
  ?threshold:int ->
  ?epsilon:float ->
  ?faults:Faults.t ->
  ?route_messages:bool ->
  ?sweep:Pairing.pool Ktree.sweep ->
  mode:mode ->
  rng:Prng.t ->
  lbi:Types.lbi ->
  Ktree.t ->
  Dht.t ->
  result
(** One full VSA sweep against the current ring and tree.  In [Aware]
    mode, published records are cleared from DHT storage afterwards.

    Churn resilience: the tree is {!Ktree.repair}ed first; record
    publications and rendezvous→endpoint notifications go through the
    retry/timeout wrapper of [faults] (default: a quiet plan, which
    delivers every send at its first attempt and draws nothing); stale
    records from dead reporters are dropped at the rendezvous instead
    of producing doomed transfers.

    A shed record holds its VS's handle, so a leaf's freshness check
    reads the handle's owner with no ring search ({!Dht.on_ring}).

    Records are collected in one pass over the alive nodes, in
    [node_id] order, each record with its own {!Dht.report_vs} draw and
    fault-plan send, in that order.  In [Aware] mode a delivered
    record is kept, in put order, and its publish under the node's key
    staged for routing ({!Dht.stage}); after the pass, one
    {!Dht.publish} routes the whole batch and hands each record to the
    leaf of the VS owning its key.  The pass changes no ring, so the
    batch costs the same hops and lookups as a put per record in the
    pass, and the PRNG and fault streams draw exactly as they would.

    In [Aware] mode a node's key is one read of the space's
    {!Landmark.keys} table for this run's curve parameters: computed
    on the node's first record in any round, and reused by every
    later round while those stay the same.

    The rendezvous is one bottom-up sweep, [sweep]: a leaf's pool is
    its fresh records, and a KT node at depth [d] pairs its pool when
    it holds at least [threshold] entries, or when [d = 0].  The
    records go through a {!Ktree.Reports} log; by default the sweep
    visits the leaves that received one, a leaf without one holding
    the empty pool; a test may pass a full walk of a reference tree
    instead. *)
