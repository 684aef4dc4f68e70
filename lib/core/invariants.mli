module Dht = P2plb_chord.Dht
module Ktree = P2plb_ktree.Ktree

(** Whole-system invariant checking, for tests, examples and debugging
    sessions.  Each check returns [Ok ()] or a description of the
    first violation found. *)

val ring_partition : Dht.t -> (unit, string) result
(** Virtual-server regions tile the identifier space exactly. *)

val ownership : Dht.t -> (unit, string) result
(** Every VS is listed by exactly its owner node; every listed VS is
    on the ring; owners are alive. *)

val load_conservation :
  expected_total:float -> Dht.t -> (unit, string) result
(** Total system load equals [expected_total] within 1e-6 relative. *)

val dead_detached : Dht.t -> (unit, string) result
(** No departed/crashed node still lists a virtual server, and
    everything in {!Dht.dead_nodes} is in fact dead — the live-node
    scope of the other checks is trustworthy under churn. *)

val vs_snapshot : Dht.t -> (P2plb_idspace.Id.t * int) list
(** The current [(vs id, owner)] pairs, sorted by vs id — the
    "before" side of {!vs_conservation}. *)

val vs_conservation :
  before:(P2plb_idspace.Id.t * int) list ->
  ?crashes:int ->
  Dht.t ->
  (unit, string) result
(** No virtual server was lost or duplicated since [before] was
    snapshot: every ring VS is listed exactly once across alive
    nodes (a double-applied transfer leaves a second listing), no VS
    id exists now that did not exist before, and — when [crashes]
    (node deaths since the snapshot, default 0) is zero — no VS id
    disappeared either.  Crash absorption is the only legal way for a
    VS to vanish (its region and load fold into the successor), so
    disappearances are tolerated only when [crashes > 0]. *)

val all :
  ?tree:Ktree.t ->
  ?expected_total:float ->
  ?vs_before:(P2plb_idspace.Id.t * int) list ->
  ?crashes:int ->
  Dht.t ->
  (unit, string) result
(** Runs every applicable check; first failure wins.  Besides the
    checks above it asserts that no VS load is negative and that the
    load reachable through alive nodes' VS lists equals the ring total
    (churn strands no load on dead nodes).  [vs_before] (with
    [crashes]) enables {!vs_conservation}, and [tree]
    {!Ktree.check_consistent}. *)
