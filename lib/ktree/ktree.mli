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
    made consistent with the ring ({!build}, or a full {!repair} /
    {!refresh} walk); while the ring keeps that version, upkeep is
    O(1).

    Whole-tree figures ({!depth}, {!n_nodes}, {!n_leaves},
    {!leaf_assignment}, {!host_nodes}) come from one cached
    traversal, redone only after the tree's structure or planting
    changed: the first call after a change costs O(nodes), the rest
    O(1).

    Message accounting: child-creation plants cost a DHT lookup
    (counted in overlay hops when [route_messages] is on) plus one
    message; refresh heartbeats cost one message per parent–child
    edge; sweeps cost one message per edge traversed. *)

(** {1 Layout}

    The tree is flat: a node is an index into six int arrays (region
    start, region length, depth, host VS id, first-child index and
    leaf-slot tag), so it needs no record and no box, and walking it
    chases no pointers.  The root is index 0.  The children of an
    internal node occupy one contiguous {e K-block} of indices, slot
    [i] holding the [i]-th part of the parent's region; a slot whose
    part is empty has length 0 and is not a child.  A leaf's first-child
    index is -1.

    [build] sizes the arrays from the ≈ #VS·K·(log_K 2{^32} − log_K #VS)
    node count of DESIGN.md §2 and grows them by half when full.  A
    prune in {!refresh} or {!repair} returns the K-blocks of the
    subtrees it drops to a free list, which later plants reuse, so a
    long-lived tree under churn stays the size of a fresh one.

    Costs: the accessors below are O(1) and allocate nothing, apart
    from {!region} (one [Region.t]) and {!children} (an array).  A
    sweep is O(nodes) and allocates only what its callbacks do. *)

type node = private int
(** A KT node of one tree: valid until that tree's next {!refresh} or
    {!repair}, which may prune it. *)

type t

val set_obs : t -> P2plb_obs.Obs.t -> unit
(** Routes tree-maintenance events to an observability bundle:
    {!refresh} host changes emit ["kt/rehost"] points and {!repair}
    re-plants emit ["kt/replant"] points (both with a [depth]
    attribute), each also bumping the counter of the same name.
    Without an attachment the tree stays silent. *)

val build : ?route_messages:bool -> k:int -> 'a Dht.t -> t
(** Constructs the tree top-down against the current ring.  Requires a
    non-empty ring.  [route_messages] (default false) additionally
    routes each planting lookup through Chord to charge realistic hop
    counts to the message counter.

    Cost: one O(#VS) pass to read the sorted VS ids, then one binary
    search bounded by the parent's slice of ids per KT node (its host),
    plus one per created child (its slice); no DHT query unless
    [route_messages].  The cached whole-tree figures (see above) are
    filled in the same pass, so the first {!depth} or
    {!leaf_assignment} after a build is O(1). *)

val k : t -> int
val root : t -> node

val is_leaf : t -> node -> bool
(** No children: the node's region is covered by its host. *)

val region : t -> node -> Region.t

val key : t -> node -> Id.t
(** Centre of {!region}: the DHT key the node is planted at. *)

val node_depth : t -> node -> int
(** Root = 0. *)

val host : t -> node -> Id.t
(** Id of the hosting virtual server. *)

val children : t -> node -> node option array
(** Length K; slot [i] is the child responsible for the [i]-th part of
    the node's region, [None] for an empty part or a leaf.  Allocates
    the array: meant for inspection, not for sweeps. *)

val depth : t -> int
(** Maximum depth over all current KT nodes — the bound on
    aggregation / dissemination rounds, O(log_K N).  Cached (see
    above). *)

val n_nodes : t -> int
(** Cached (see above). *)

val n_leaves : t -> int
(** Cached (see above). *)

val host_nodes : t -> Id.t -> int
(** Number of KT nodes planted in the VS with this id (0 for none) —
    what a VS transfer must re-home.  Cached (see above). *)

val leaves : t -> node list
(** In identifier-space order. *)

val refresh : ?route_messages:bool -> t -> 'a Dht.t -> unit
(** One periodic maintenance pass: re-resolve every KT node's hosting
    VS, prune children of nodes that became leaves, grow children that
    became necessary.  Idempotent once the ring is stable.

    Messages: one heartbeat per parent–child edge the walk descends,
    [K + 1] per re-hosted node, one per planted child and one per
    pruned child, plus the lookup hops with [route_messages].  A node
    that becomes a leaf only prunes: nothing is planted below it
    first.

    Costs O(nodes) when the ring version moved since the tree was last
    consistent (or with [route_messages], whose lookups are charged);
    otherwise O(1): it charges the walk's heartbeats,
    [n_nodes - 1] messages, and changes nothing else. *)

val repair : ?route_messages:bool -> t -> 'a Dht.t -> int
(** Reactive self-repair, run before a sweep traverses the tree under
    churn: detect KT nodes whose hosting VS is dead or no longer owns
    the node's centre key, re-plant each via a DHT lookup issued from
    the nearest live ancestor, then prune/grow the affected subtrees
    against the current ring.  Unlike {!refresh} it charges messages
    only for broken nodes, so it counts nothing on a healthy ring.
    Returns the number of KT nodes re-planted this pass; cumulative
    costs are exposed by {!repairs} / {!repair_messages}.

    Walks the whole tree, O(nodes), when the ring version moved since
    the tree was last consistent; otherwise returns 0 in O(1). *)

val check_consistent : t -> 'a Dht.t -> (unit, string) result
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
    information (§3.2, §4.3).  The table is cached on the tree and
    shared by every caller until the next structural mutation
    (plant / prune / re-host): O(nodes) on the first call after one,
    O(1) after that. *)

val leaf_slot : t -> node -> int
(** The node's slot ordinal in the current {!leaf_assignment}: assigned
    leaves are numbered [0 .. n_leaf_slots - 1] in preorder; any other
    node answers -1.  Only meaningful after a cached figure
    ({!leaf_assignment}, {!n_nodes}, ...) was read from the owning
    tree, until the next structural mutation.  Backs the
    array-indexed (counting-sort) rendezvous in the VSA/LBI hot
    paths. *)

val n_leaf_slots : t -> int
(** Number of assigned leaves numbered by the cached assignment.
    Cached (see above). *)

(** {1 Sweeps}

    The communication patterns of LBI aggregation (bottom-up),
    dissemination (top-down) and VSA (bottom-up).  Each traversed edge
    counts as one message; the number of rounds equals the tree depth. *)

val sweep_up :
  t ->
  at_leaf:(node -> 'a) ->
  empty:'a ->
  merge:('a -> 'a -> 'a) ->
  at_node:(node -> 'a -> 'a) ->
  'a
(** Postorder.  [at_leaf] gives a leaf's value.  An internal node's
    value is [at_node n acc], where [acc] is [merge] folded left from
    [empty] over its children's values in child order, each child
    merged as soon as its subtree returns.  [merge] must be pure: only
    the sequence of [at_leaf] / [at_node] calls, and the operands of
    each node's merges, are specified.  Returns the root's value. *)

val sweep_down :
  t ->
  at_root:'a ->
  split:(node -> 'a -> 'a) ->
  at_leaf:(node -> 'a -> unit) ->
  unit
(** Preorder: pushes a value down from the root; [split] transforms
    the value as it crosses each edge into the given child (identity
    for LBI dissemination). *)

(** {1 Cost accounting} *)

val messages : t -> int
(** Messages spent so far on building, refreshing and sweeping. *)

val rounds_last_sweep : t -> int
(** Rounds (tree levels traversed) of the most recent sweep. *)

val repairs : t -> int
(** KT nodes re-planted by {!repair} so far. *)

val repair_messages : t -> int
(** Messages spent on {!repair} passes (also included in
    {!messages}). *)

val reset_counters : t -> unit
