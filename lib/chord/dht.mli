module Id = P2plb_idspace.Id
module Region = P2plb_idspace.Region
module Prng = P2plb_prng.Prng

(** A simulated Chord DHT with virtual servers (32-bit id space).

    Physical nodes host multiple virtual servers (VSs); each VS is a
    first-class ring participant responsible for the arc between its
    predecessor VS and itself (paper §2, Fig. 1).  Load lives on VSs
    and moves with them; moving a VS between physical nodes is the
    unit of load transfer.

    The ring maps keys to VSs and keeps no payloads: as in Chord, what
    a node stores is the application's.  The proximity-aware scheme
    publishes VSA records under Hilbert keys (§4.3) as one batch
    ({!stage}, {!publish}); the caller keeps the records, and
    {!publish} hands each put to the VS owning its key.

    Routing uses Chord's greedy finger algorithm evaluated against the
    current ring, counting overlay hops; lookup and message counters
    support the cost accounting in the experiments.

    The ring is one sorted array of VS ids with the VS records in a
    parallel array, always current.  {!n_vs} is O(1), and inserting or
    deleting one VS shifts the arrays: O(#VS).  A fresh ring is built
    with one radix sort by {!join_all}, and a departing node's VSs all
    leave in one O(#VS) pass.

    {b Searches.}  The routing reads — {!lookup}, {!stage} and
    {!publish} (the source, the key's predecessor and every hop) and
    {!owner_of_key} — go through a bucket index over the top [b] id
    bits ({!Ring_index}), the largest [b] with [2{^b} <= n_vs]: one
    table read and a search over about one id, since VS ids are
    hashes.  The index is rebuilt, in O(#VS), by the first of those
    reads after {!ring_version} moves, never by a membership change
    itself: a burst of joins or departures costs one rebuild, at the
    next read.  {!vs_of_id} and {!region_of_vs} stay plain binary
    searches, O(log #VS), so that {!join}, which checks each new VS id
    with [vs_of_id], never rebuilds the index. *)

type node_id = int

type vs = private {
  vs_id : Id.t;
  mutable owner : node_id;
  mutable load : float;
}

type node = private {
  node_id : node_id;
  underlay : int;  (** attachment vertex in the underlay topology *)
  capacity : float;
  mutable alive : bool;
  mutable vss : vs list;
}

type t

val create : seed:int -> t

(** {1 Membership} *)

val join : t -> capacity:float -> underlay:int -> n_vs:int -> node_id
(** Adds a physical node hosting [n_vs] virtual servers with
    pseudo-random identifiers.  When a VS lands inside an existing
    VS's region it takes over the sub-arc up to its own id, and
    inherits the proportional share of that VS's load (so total system
    load is invariant under joins).  Costs O(#VS) per VS inserted: this
    is the churn path; build a fresh ring with {!join_all}.  Raises
    [Invalid_argument] if [capacity <= 0] or [n_vs < 1]. *)

val join_ids : t -> capacity:float -> underlay:int -> Id.t array -> node_id
(** Like {!join}, with the VSs at the given ids, inserted in array
    order.  Raises [Invalid_argument], before changing anything, if
    [capacity <= 0], [ids] is empty, or an id is outside the id space,
    repeated or already on the ring. *)

val join_all : t -> (float * int) array -> n_vs:int -> unit
(** [join_all t nodes ~n_vs] joins every [(capacity, underlay)] of
    [nodes] to an empty ring, in array order, each hosting [n_vs]
    virtual servers: the same node ids, VS ids, per-node VS order,
    loads and {!ring_version} as calling {!join} on each in turn.

    It costs one radix sort over packed [(id lsl 30) lor draw] ints,
    O(#VS), instead of O(#VS²): draw [node * n_vs + index] is a node's
    [index]-th VS.  Collisions are found after the sort, as equal
    neighbours, and follow {!join}'s rule: of the draws that hit one
    id, the first keeps it and each later one re-draws with the next
    salt, in draw order.  A re-drawn id that an earlier draw holds is
    drawn again; one that is the salt-0 id of a later draw is kept,
    and that later draw re-draws instead (see {!Vs_draw.sorted_keys}).
    The keys are sorted again only if some id moved.

    Raises [Invalid_argument] on a non-empty ring, any
    [capacity <= 0], [n_vs < 1] or [Array.length nodes * n_vs >= 2{^30}]
    (too many draws to pack), before allocating or changing
    anything. *)

val crash : t -> node_id -> unit
(** A node's departure, fail-stop or graceful: the ring is modelled
    after repair, assuming replication preserved the objects and hence
    the load.  Each VS's region and load are absorbed by its successor
    VS, as a Chord leave hands off its keys: in the node's [vss] order,
    each to its successor at that moment, so a load can pass through a
    later VS of the same node.  A no-op on a departed node.  Raises
    [Invalid_argument], before changing anything, when the node hosts
    every VS (see {!can_depart}). *)

val can_depart : t -> node_id -> bool
(** Whether [id] is alive and some other node hosts a VS, so that its
    departure leaves the ring non-empty.  Every crash the simulator
    injects checks it first: a node hosting every VS is never killed. *)

val node : t -> node_id -> node
(** Raises [Not_found] for unknown ids. *)

val is_alive : t -> node_id -> bool
val n_nodes : t -> int
(** Number of alive nodes. *)

val n_vs : t -> int
(** Number of virtual servers on the ring; O(1). *)

val ring_version : t -> int
(** A counter that moves exactly when the set of ring ids changes:
    every VS inserted ({!join}, {!join_all}) or deleted ({!crash},
    {!remove_vs}) bumps it by one.  It does not move for
    {!transfer_vs} (the VS keeps its id and region), load changes
    ({!set_vs_load}, {!add_vs_load}) or publishes ({!stage},
    {!publish}).  Structures keyed by VS ids and regions — the
    K-nary tree — stay valid while it is unchanged. *)

val fold_nodes : t -> init:'acc -> f:('acc -> node -> 'acc) -> 'acc
(** Over alive nodes, in increasing [node_id] order (deterministic). *)

val fold_vs : t -> init:'acc -> f:('acc -> vs -> 'acc) -> 'acc
(** Over all virtual servers in ring order.  [f] must not insert or
    delete VSs. *)

val vs_ids : t -> Id.t array
(** The ids of all virtual servers in ring order, as a fresh array:
    one O(#VS) copy of the ring. *)

val alive_nodes : t -> node list
(** In increasing [node_id] order. *)

val alive_nth : t -> int -> node
(** [alive_nth t i] is the [i]-th alive node in increasing [node_id]
    order — [List.nth (alive_nodes t) i] without building the list.
    O(1) amortised (nodes are cached in join order; departures repack
    the cache lazily).  Raises [Invalid_argument] when [i] is out of
    range. *)

val dead_nodes : t -> node list
(** Departed/crashed nodes, in increasing [node_id] order — for
    live-node-scoped invariant checks. *)

(** {1 Virtual servers, regions and load} *)

val vs_of_id : t -> Id.t -> vs option
val region_of_vs : t -> vs -> Region.t

val on_ring : vs -> bool
(** Whether the VS is still on the ring.  A [vs] record is a handle:
    while it is on the ring it is the record {!vs_of_id} returns for
    its id, and its [owner] and [load] are current, at any
    {!ring_version}.  A VS that leaves ({!crash},
    {!remove_vs}) has its [owner] set to [-1], which no node has
    ({!is_alive} is false for it), and never comes back: a later VS
    that draws the same id is a new record. *)

val owner_of_key : t -> Id.t -> vs
(** The VS responsible for a key ([successor(k)]).  Raises
    [Invalid_argument] on an empty ring. *)

val set_vs_load : t -> vs -> float -> unit
val add_vs_load : t -> vs -> float -> unit

val node_load : node -> float
(** The sum of the node's VS loads, from [0.0] in [vss] order. *)

(** {2 The node table}

    One load and one smallest VS load per alive node: the state a node
    classifies itself from (paper §3.3).  Entry [i] of both arrays is
    the [i]-th alive node in increasing [node_id] order, the order of
    {!fold_nodes} and {!alive_nth}, and each array has {!n_nodes}
    entries.  Each load is summed from [0.0] in [vss] order, as
    {!node_load} sums it, and each smallest VS load is folded from
    [infinity] with [Float.min] in [vss] order ([infinity] for a node
    hosting no VS), so every entry is bit-identical to those folds.

    The table is rebuilt lazily, in one pass over the alive nodes, by
    the first read after a change to a VS load, a node's VS list or the
    alive set: {!set_vs_load}, {!add_vs_load}, {!join}, {!join_ids},
    {!join_all}, {!crash}, {!remove_vs} and {!transfer_vs} invalidate
    it.  Routing ({!lookup}, {!stage}, {!publish}) and the counters
    do not.  The arrays are the table itself, not copies:
    read them, never write them, and read them again after a change,
    which may rebuild them in place. *)

val node_loads : t -> floatarray
(** The node table's loads. *)

val node_l_mins : t -> floatarray
(** The node table's smallest VS loads. *)

val total_load : t -> float
val total_capacity : t -> float

val report_vs : t -> Prng.t -> node -> vs
(** A node reports LBI through one randomly chosen VS (§3.2); a node
    that currently hosts no VS (it shed everything in a previous
    round) reports through the VS owning its home key instead. *)

val transfer_vs : t -> vs -> to_node:node_id -> unit
(** [transfer_vs t v ~to_node] re-hosts the VS [v] (with its load and
    region) on another physical node: the VST operation.  [v] is the
    record the ring holds, a handle (see {!on_ring}), not searched for
    on the ring, so a caller that holds only an id finds the record
    with {!vs_of_id} first.  Raises [Invalid_argument] if [v] is no
    longer on the ring (its owner departed, or it was removed) or the
    target is dead. *)

val remove_vs : t -> vs -> unit
(** [remove_vs t v] deletes the VS [v], a handle like {!transfer_vs}'s;
    its region and load are absorbed by the successor — CFS-style
    shedding (used by the CFS baseline) — and [v] is marked off the
    ring.  Raises [Invalid_argument] if [v] is no longer on the ring,
    or is the last VS on it. *)

(** {1 Routing} *)

val lookup : t -> from:Id.t -> key:Id.t -> vs * int
(** [lookup t ~from ~key] routes from the VS [from] to the VS
    responsible for [key]; returns the responsible VS and the overlay
    hop count (0 if [from] is itself responsible).  The hop count is
    that of Chord's greedy finger routing: every hop goes to the
    closest finger [successor(cur + 2^k)] strictly preceding the key,
    and the last hop to the owner.  The simulator finds that finger
    with one indexed search per hop, clamped to the ring positions
    between the hop and the key's predecessor, so a lookup costs
    O(hops) once the index is current.  Raises [Invalid_argument] on
    an empty ring or when [from] is not a VS id. *)

val stage : t -> from:Id.t -> key:Id.t -> unit
(** [stage t ~from ~key] queues a put of [key] from the VS [from] for
    the next {!publish}; the batch keeps each put's key and source, in
    put order, and no payload.  Raises [Invalid_argument], queueing
    nothing, on an empty ring, when [from] is not a VS id, or when the
    ring changed since the batch's first stage. *)

val publish : ?hops:int array -> t -> f:(int -> vs -> unit) -> int
(** Routes every put staged since the last publish as one batch, then
    delivers it, and returns the overlay hops used: the same hops and
    counters as a {!lookup} of each, in put order.  [hops.(i)], when
    given, receives the batch's [i]-th put's hop count.  Raises
    [Invalid_argument], counting and delivering nothing, when the ring
    changed since the batch's first stage; the batch is dropped either
    way.

    Delivery calls [f i owner] once for each put [i] of the batch
    (numbered from 0 in stage order), [owner] the VS owning its key.
    Owners come in ring order; each owner's keys counter-clockwise
    from the last point of its region — its id, or the top of the ring
    when one VS owns the whole ring; puts under one key in put order.

    Staging groups the puts by the ring index of the key's
    predecessor, in first-seen order, with no sort: a group stamp on
    the predecessor's ring position, and a chain through the group's
    puts.  Greedy routing towards a fixed predecessor is a tree,
    hops(i) = 1 + hops(next(i)), so each group routes through a memo
    over ring positions, stamped per group: a walk stops at the first
    position its group has already routed from.  Each hop is
    {!lookup}'s own step.  A group's puts share an owner, so delivery
    sorts the groups by owner and each group's puts by their key's
    distance to the owner's id, as packed ints.  The memo, the chains
    and the sort's arrays are on [t], grown to the ring's size and the
    batch's and reused by every later batch; a new stamp per group
    leaves nothing to clear. *)

(** {1 Cost accounting} *)

val lookups_performed : t -> int
val hops_used : t -> int
