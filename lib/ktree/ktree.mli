module Id = P2plb_idspace.Id
module Region = P2plb_idspace.Region
module Dht = P2plb_chord.Dht

(** The self-organised, fully distributed K-nary tree built on top of
    the DHT (paper §3.1).

    Every KT node is responsible for a region of the identifier space
    (the root for the whole ring) and is {e planted} in the virtual
    server owning the centre point of that region.  A KT node whose
    region is completely covered by its hosting VS's region is a leaf;
    otherwise its region splits into K equal parts, one per child.
    This guarantees at least one KT leaf is planted in every VS.

    The tree is soft state: {!refresh} re-runs the periodic grow /
    prune / re-plant checks against the current ring, which is how the
    tree self-repairs after joins, leaves, crashes and VS transfers.
    The tree remembers the {!Dht.ring_version} at which it was last
    made consistent with the ring ({!build}, {!repair} or {!refresh});
    while the ring keeps that version, upkeep is O(1).  After churn,
    upkeep walks only the paths the ring change touched: the ids added
    or removed and their successors, not the whole tree.

    Whole-tree figures ({!depth}, {!n_nodes}, {!n_leaves},
    {!host_nodes}) are computed by the walk that makes the
    tree consistent with a ring and read in O(1) after it (one search
    of a bucket index over the ids for the per-VS ones).

    Message accounting: child-creation plants cost a DHT lookup
    (counted in overlay hops when [route_messages] is on) plus one
    message; refresh heartbeats cost one message per parent–child
    edge; sweeps cost one message per edge traversed. *)

(** {1:layout Layout}

    A KT node's region, host and leafness are a function of the sorted
    VS ids alone (§3.1; DESIGN.md §2), and {!build}, {!refresh} and
    {!repair} each leave exactly the tree that function gives for the
    ring they saw.  So the tree stores only a copy of those ids and an
    O(#VS) summary indexed by ring position: per-VS node counts, each
    VS's assigned leaf and slot, the depth and the counts.  Every node
    is derived on the fly by walks over index slices of the ids; a
    slice of one id (a single-VS chain, most of the tree) needs no
    search.  Storage is O(#VS) words whatever the node count.

    A {!node} is one int: its region start, its depth, one bit for its
    region length and, for an assigned leaf, its slot; so
    {!node_depth}, {!leaf_slot}, {!region} and {!key} are O(1) and
    allocate nothing beyond {!region}'s [Region.t].  {!host} and
    {!is_leaf} are one binary search over the ids, {!children} K of
    them plus its array.

    Costs: {!build} is one O(#VS) copy of the ids plus one summary
    walk with searches only at the forks.  At K = 2 a region of depth
    [d] is an aligned run of 2{^32 − d} points, so its centre is the
    split point: one search per fork finds the host and both halves,
    and each chain is read off its id's bits in O(1), O(#VS · fork
    depth) in all.  At any other K the walk steps down each chain a
    level at a time without visiting its leaves: O(#VS · depth · K).
    A sweep visits only the skeleton of the assigned leaves it lists
    (see {!section-sweeps}): O(depth − fork depth) arithmetic steps
    per listed leaf (at K = 2 a mask each) with O(depth) scratch, one
    callback per listed leaf, fork merge and lifted run, whatever the
    node count.
    {!refresh} and {!repair} on a moved ring walk the old and the new
    tree together, skipping every subtree that is the same in both,
    then redo the summary: O(#VS) for the summary and for comparing
    the two rings' id slices, plus O(depth · K) visits per added or
    removed id. *)

type node = private int
(** A KT node of one tree, as that tree stood when the node was
    produced: valid until the tree's next {!refresh} or {!repair},
    after which it may name a pruned node or a stale slot. *)

type t

val set_obs : t -> P2plb_obs.Obs.t -> unit
(** Routes tree-maintenance events to an observability bundle:
    {!refresh} host changes emit ["kt/rehost"] points and {!repair}
    re-plants emit ["kt/replant"] points (both with a [depth]
    attribute).  Without an attachment the tree stays silent. *)

val build : ?route_messages:bool -> k:int -> Dht.t -> t
(** Constructs the tree against the current ring.  Requires a
    non-empty ring.  [route_messages] (default false) additionally
    routes each planting lookup through Chord, from the parent's host
    in preorder, to charge realistic hop counts to the message
    counter.

    Cost: one O(#VS) copy of the sorted VS ids and one summary walk
    (see {!section-layout}); no DHT query unless [route_messages],
    which adds one walk over every node. *)

val copy : t -> t
(** A tree equal to [t] that upkeep, sweeps and counters on one leave
    unchanged in the other; an attached {!set_obs} bundle is shared.
    O(1): the stored ids are never mutated. *)

val k : t -> int
val root : t -> node

val is_leaf : t -> node -> bool
(** No children: the node's region is covered by its host.
    O(log #VS). *)

val region : t -> node -> Region.t

val key : t -> node -> Id.t
(** Centre of {!region}: the DHT key the node is planted at. *)

val node_depth : t -> node -> int
(** Root = 0. *)

val host : t -> node -> Id.t
(** Id of the hosting virtual server.  O(log #VS). *)

val children : t -> node -> node option array
(** Length K; slot [i] is the child responsible for the [i]-th part of
    the node's region, [None] for an empty part or a leaf.  Allocates
    the array: meant for inspection, not for sweeps. *)

val depth : t -> int
(** Maximum depth over all current KT nodes — the bound on
    aggregation / dissemination rounds, O(log_K N). *)

val n_nodes : t -> int
val n_leaves : t -> int

val host_nodes : t -> Id.t -> int
(** Number of KT nodes planted in the VS with this id (0 for none) —
    what a VS transfer must re-home. *)

val leaves : t -> node list
(** In identifier-space order. *)

val refresh : ?route_messages:bool -> t -> Dht.t -> unit
(** One periodic maintenance pass: re-resolve every KT node's hosting
    VS, prune children of nodes that became leaves, grow children that
    became necessary.  Idempotent once the ring is stable.

    Messages: one heartbeat per parent–child edge of the refreshed tree,
    [K + 1] per re-hosted node, one per planted child and one per
    pruned child, plus the lookup hops with [route_messages].  A node
    that becomes a leaf only prunes: nothing is planted below it
    first.

    The heartbeats, [n_nodes - 1] messages of the refreshed tree, are
    charged at once.  On an unchanged ring that is all it does, in
    O(1).  When the ring version moved since the tree was last
    consistent, one walk over the old tree and the new one together,
    in the new one's preorder, visits only the paths the change
    touched (see {!section-layout}).  With [route_messages] every
    node's lookup is charged, so the walk visits every node, O(nodes),
    whether the ring changed or not. *)

val repair : ?route_messages:bool -> t -> Dht.t -> int
(** Reactive self-repair, run before a sweep traverses the tree under
    churn: detect KT nodes whose hosting VS is dead or no longer owns
    the node's centre key, re-plant each via a DHT lookup issued from
    the nearest live ancestor, then prune/grow the affected subtrees
    against the current ring.  Unlike {!refresh} it charges messages
    only for broken nodes, so it counts nothing on a healthy ring.
    Returns the number of KT nodes re-planted this pass; cumulative
    costs are exposed by {!repairs} / {!repair_messages}.

    Walks the old tree and the new one together, visiting only the
    paths the change touched (with or without [route_messages]: a
    skipped subtree holds no broken node and plants nothing), when the
    ring version moved since the tree was last consistent; otherwise
    returns 0 in O(1). *)

val check_consistent : t -> Dht.t -> (unit, string) result
(** Structural invariants: root covers the ring, children partition
    their parent's region, every KT node is planted at its region's
    centre in the correct VS, leaves are exactly the covered nodes,
    and every VS hosts at least one leaf.  Used by tests. *)

val fold_nodes : t -> init:'a -> f:('a -> node -> 'a) -> 'a
(** Over all KT nodes, preorder; O(nodes). *)

val leaf_assignment : t -> (Id.t, node) Hashtbl.t
(** For every VS (keyed by VS id), the designated leaf it reports
    through — the deepest-first leaf planted in it.  A VS hosting
    several leaves reports through exactly one to avoid redundant
    information (§3.2, §4.3).  A fresh table, built in O(#VS) from the
    summary. *)

val leaf_slot : t -> node -> int
(** The node's slot ordinal in the current {!leaf_assignment}: assigned
    leaves are numbered [0 .. n_leaf_slots - 1] in preorder; any other
    node answers -1.  O(1): the slot is part of the node.  Backs
    {!Reports}' counting sort and the slot lists of {!val-sweep}. *)

val n_leaf_slots : t -> int
(** Number of assigned leaves: one per VS. *)

(** {1:sweeps Sweeps}

    The communication patterns of LBI aggregation (bottom-up, §3.2),
    dissemination (top-down, §3.3) and VSA (bottom-up, §3.4).  Each
    charges one message per edge, [n_nodes - 1], and [depth + 1]
    rounds, one per level: the protocol's cost, whatever the simulator
    walks.

    The bottom-up sweep of a list of assigned leaves is the full
    postorder walk in which a listed leaf's value is [at_leaf], any
    other leaf's is [empty], an internal node at depth [d] gives [lift
    ~hi:d ~lo:d] of its children's values [merge]d left to right from
    [empty].  It walks only the {e skeleton}: the listed leaves, and
    the forks where two subtrees holding listed leaves meet.  It skips
    the calls on subtrees without a listed leaf and the merges of
    their values, and gives the same value when these laws hold:
    - [merge] has [empty] as a bitwise identity on both sides;
    - [lift] of [empty] is [empty] ([at_node n empty = empty]);
    - lifting level by level is one lift over the levels' range.
    A caller's lift may do its work once per run and skip the levels
    above when that work is idempotent: VSA pairs a run at its lowest
    level or at the root, since pairing a pool's leftover again
    returns it unchanged. *)

type 'a sweep =
  at_leaf:(slot:int -> depth:int -> 'a) ->
  merge:('a -> 'a -> 'a) ->
  lift:(hi:int -> lo:int -> 'a -> 'a) ->
  'a
(** A bottom-up sweep run with its callbacks; returns the root's value.
    [sweep t slots ~empty] is the tree's; a test may drive the same
    callbacks through a full walk of a reference tree. *)

val sweep : t -> int array -> empty:'a -> 'a sweep
(** [sweep t slots ~empty] is the skeleton sweep of the assigned
    leaves of [slots], a strictly increasing array within [0 ..
    n_leaf_slots - 1]; every other assigned leaf's value is [empty].
    Under the laws above those leaves change nothing, so the walk
    skips them: [at_leaf ~slot ~depth] is called once per listed slot,
    in slot order (identifier order), and never on an unlisted one.
    With no slot it returns [empty] and calls nothing.  Consecutive
    listed leaves are merged at their deepest common ancestor, earlier
    operand first, in the full postorder's order.  A skeleton node at
    depth [c] whose skeleton parent is at depth [p] is lifted once,
    [lift ~hi:(p + 1) ~lo v], over the levels in between: [lo = c - 1]
    for a leaf, [c] for a fork (its own level comes first), and [hi =
    0] for the topmost fork, the root being above it.  Empty ranges
    are skipped, so with one listed leaf nothing is lifted below the
    root's level.  Callbacks run in the postorder's order: each lift
    right after the value it lifts is complete, each merge as soon as
    its right operand is lifted.

    It charges the protocol, not the walk: one message per edge of the
    tree and [depth + 1] rounds, whatever [slots] lists. *)

val broadcast : t -> unit
(** Top-down dissemination of one value, unchanged, from the root to
    every leaf.  Every leaf receives the root's value, so nothing is
    walked: it charges the sweep's messages and rounds.  A caller that
    acts once per leaf loops over {!n_leaves}. *)

(** {1:reports Leaf reports}

    The rendezvous of LBI aggregation (§3.2) and VSA (§3.4): each
    report is handed to a VS's designated leaf, and one bottom-up
    {!val-sweep} combines them, starting from the leaves that received
    one. *)

module Reports : sig
  type tree := t

  type 'r t
  (** A growable log of reports bound for one tree's leaves.  Valid
      until that tree's next {!refresh} or {!repair}. *)

  val create : tree -> 'r t

  val add : 'r t -> Id.t -> 'r -> unit
  (** [add log vs_id r] hands [r] to the designated leaf of the VS
      [vs_id]; dropped when that VS is not on the tree's ring.
      One search of the tree's bucket index over its ids, O(1) on
      evenly spread ids; the first search after {!build}, {!copy} or
      an upkeep that moved the tree rebuilds the index in O(#VS). *)

  val sweep :
    ?sweep:'a sweep ->
    'r t ->
    empty:'a ->
    at_leaf:(depth:int -> 'r array -> lo:int -> hi:int -> 'a) ->
    merge:('a -> 'a -> 'a) ->
    lift:(hi:int -> lo:int -> 'a -> 'a) ->
    'a
  (** Groups the log per leaf slot by one stable counting sort and
      runs [sweep] (default: [Ktree.sweep] over the slots that
      received a report) with it.  A leaf with reports gets [at_leaf
      ~depth a ~lo ~hi], its reports being [a.(lo) .. a.(hi - 1)] in
      arrival order ([lo < hi]); a leaf without one is [empty].
      O(#VS + reports) besides the sweep.  A test may pass a full walk
      of a reference tree as [sweep]. *)
end

(** {1 Cost accounting} *)

val messages : t -> int
(** Messages spent so far on building, refreshing and sweeping. *)

val rounds_last_sweep : t -> int
(** Rounds of the most recent sweep, {!val-sweep} or {!broadcast}: one
    per level, [depth + 1]. *)

val repairs : t -> int
(** KT nodes re-planted by {!repair} so far. *)

val repair_messages : t -> int
(** Messages spent on {!repair} passes (also included in
    {!messages}). *)

val reset_counters : t -> unit
