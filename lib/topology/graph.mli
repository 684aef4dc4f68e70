(** Undirected weighted graphs and shortest paths.

    The underlay Internet topology.  Edge weights are latency units:
    the paper counts an interdomain hop as 3 units and an intradomain
    hop as 1 unit (§5.1). *)

type t
(** Compressed sparse rows: one offset array over the vertices and two
    flat int arrays (neighbour, weight) holding each undirected edge
    once in the row of each endpoint.  No pair is boxed, so a traversal
    reads three int arrays and allocates nothing.

    A graph with weight-0 edges also holds its zero-weight quotient,
    built once by {!freeze} and immutable after: the components joined
    by weight-0 edges, and the graph over them that keeps, for each
    pair of components joined by an edge, the least weight of those
    edges.  {!dijkstra} runs there. *)

type builder

val create_builder : n:int -> builder
(** A mutable builder for a graph on vertices [0 .. n-1]: one record
    of two ints per edge, [(u lsl 31) lor v] and
    [(weight lsl 31) lor weight2], in insertion order, packed into
    fixed-size int-array chunks, so growing it never copies.  The
    second weight is a second metric over the same edges (see
    {!freeze2}).  [n] must lie in [\[0, 2^31 - 1\]]. *)

val add_edge : builder -> int -> int -> weight:int -> unit
(** Adds an undirected edge ([0 <= weight <= 2^31 - 1]; zero-latency
    links are allowed) in O(1), without hashing or any duplicate
    check.  Self-loops, weights out of range and vertices out of range
    are rejected.  Duplicates — the same pair in either orientation — are
    dropped by {!freeze}, which keeps the first one added: its weight
    wins.  The edge's second weight is [weight] too. *)

val add_edge2 : builder -> int -> int -> weight:int -> weight2:int -> unit
(** {!add_edge} with a distinct second weight, in the same range.  A
    dropped duplicate drops both weights: the first copy's pair wins. *)

val freeze : builder -> t
(** The immutable CSR form, in O(n + m) where [m] counts every edge
    added, duplicates included: edges are bucketed into the rows of
    both endpoints, then each row is compacted keeping a neighbour's
    first entry (a per-vertex mark array, no hashing).  Row [v] lists
    [v]'s neighbours in the order their edges were first added, at
    their first weight.  When some edge weighs 0, the zero-weight
    quotient is built too, in O(n + m).  The builder is left unchanged;
    the graph shares no array with it. *)

val freeze2 : builder -> t * t
(** The two metrics of the builder's edges, from one pass of
    {!freeze}: the first graph weighs the edges by their first weight,
    the second by their second weight.  The two share their rows
    (offsets and neighbours); each has its own weights and its own
    zero-weight quotient. *)

val n_vertices : t -> int

val n_edges : t -> int
(** Distinct vertex pairs joined by an edge. *)

val iter_neighbors : t -> int -> (int -> int -> unit) -> unit
(** [iter_neighbors g v f] calls [f u w] for each neighbour [u] of
    [v], joined at weight [w], in row order (see {!freeze}). *)

val degree : t -> int -> int

val dijkstra : t -> src:int -> int array
(** Single-source shortest path distances in latency units.
    Unreachable vertices get [max_int].  On a graph with weight-0
    edges the heap loop runs on the zero-weight quotient, and each
    vertex takes its component's distance: exact, since with
    non-negative weights a component's vertices are all at one
    distance from any source.  Besides the result, a run allocates
    only its binary heap (two parallel int arrays, key and vertex,
    that double when full, so a push allocates nothing) and, with a
    quotient, one distance per component. *)

val distance : t -> src:int -> dst:int -> int
(** Convenience single-pair distance (runs a full Dijkstra). *)

val is_connected : t -> bool

(** Exact distance oracle built on the graph's bridge decomposition.

    A bridge is an edge whose removal disconnects its endpoints.  The
    2-edge-connected components ("comps") that remain when every
    bridge is removed form a forest whose edges are the bridges; each
    tree is rooted at the comp of its lowest-numbered vertex.  Two
    facts make the decomposition exact for any non-negative weights:
    every [u]–[v] path crosses every bridge on the forest path between
    the comps of [u] and [v], and a shortest path between two vertices
    of one comp never leaves that comp (leaving it means crossing a
    bridge, which must then be crossed back).  So with [L] the lowest
    common ancestor of the two comps, [x_u] and [x_v] the vertices
    where the root paths of [u] and [v] enter [L], and [up.(w)] the
    distance from [w] up to its tree's root comp,

    {v d(u, v) = (up u - up x_u) + d_L(x_u, x_v) + (up v - up x_v) v}

    where [d_L] is the distance within [L].  Vertices in different
    trees are [max_int] apart.

    {!create} does no work; the first {!distance} call builds the
    decomposition: an iterative Tarjan pass (stack depth independent of
    the vertex count) finds the bridges and comps, then one search
    restricted to each non-root comp fills [up].  [d_L] rows are
    computed on demand, one search restricted to [L] per distinct
    entry vertex [x_u], and memoised.  A bridgeless connected graph is
    a single comp, where [x_u = u] and the oracle runs one search per
    distinct source as a plain per-source cache would.  [Transit_stub]
    underlays attach every stub domain by one bridge, so cross-domain
    queries price against rows over comps of the transit core only.

    The search depends on the comp.  The build records, per comp,
    whether all its internal edges share one weight [w] and whether
    its adjacency bitsets — one row of [ceil (size / 63)] words per
    vertex, bit [j] of row [i] set when local vertices [i] and [j] are
    adjacent — take no more words than its internal arcs (each edge
    counted from both ends).  A comp with both properties is searched
    breadth-first over those bitsets, a whole word of neighbours per
    operation, with distance = level × [w]: on [Transit_stub] underlays
    that is each dense stub domain.  Every other comp (mixed weights,
    or too sparse for its bitsets to pay) gets a restricted Dijkstra.
    Both give the same exact distances.  Since the bitsets of a comp
    fit in its arcs, all of them together take at most [2m] words, and
    the oracle's memory stays O(n + m) besides its memoised rows. *)
module Oracle : sig
  type graph := t
  type t

  val create : graph -> t
  val distance : t -> src:int -> dst:int -> int
  (** Exact shortest-path distance, [max_int] when unreachable.
      @raise Invalid_argument when a vertex is out of range. *)

  val sources_computed : t -> int
  (** Memoised [d_L] rows: distinct entry vertices [x_u] queried so
      far.  On a bridgeless graph, the distinct sources queried. *)

  val probes : t -> int
  (** Restricted searches (breadth-first or Dijkstra) made to answer
      queries — one per memoised row, so repeated queries that enter
      [L] at one vertex cost exactly one probe.  The build's per-comp
      runs for [up] are not counted.  On a bridgeless graph, one per
      distinct source. *)
end
