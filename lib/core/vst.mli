module Dht = P2plb_chord.Dht
module Ktree = P2plb_ktree.Ktree
module Graph = P2plb_topology.Graph
module Histogram = P2plb_metrics.Histogram
module Faults = P2plb_sim.Faults

(** Phase 4: virtual-server transferring (paper §3.5).

    Applies the paired assignments: each VS moves (with its load and
    region) from its heavy node to the assigned light node.  The
    transfer cost is the weighted underlay hop distance between the
    two physical nodes — the metric of the paper's Figures 7–8 — and
    each transferred VS's KT nodes lazily migrate with it at K+1
    messages apiece.

    {2 Transactional transfers}

    Each assignment runs as a PREPARE -> TRANSFER -> COMMIT transaction
    with a per-assignment sequence number.  The order is carried by
    types: each step returns an abstract witness that only the next
    step accepts, so out-of-order code does not compile.  Under a
    fault plan:

    - a PREPARE lost to message loss or a partition cut aborts before
      anything moves;
    - a fail-stop crash of either endpoint inside the window leaves
      the VS either safely home (destination died) or absorbed by the
      ring's ordinary crash handling (source died) — never
      half-transferred;
    - a duplicated TRANSFER delivery carries the same sequence number
      and is dropped idempotently instead of re-applying;
    - a lost COMMIT acknowledgement rolls the VS back to its heavy
      owner rather than stranding it mid-handoff.

    PREPARE and COMMIT are sends between the two physical nodes, so
    they draw from the plan's loss stream like every other message.
    Under a quiet plan (all rates zero) every send is delivered, no
    crash window fires, nothing is duplicated and no randomness is
    drawn. *)

type result = {
  hist : Histogram.t;  (** moved load, binned by underlay hop distance *)
  moved_load : float;
  transfers : int;  (** committed transfers only *)
  skipped : int;
      (** assignments that could not be applied — the sum of the three
          per-cause counters below *)
  skipped_vs_gone : int;
      (** the shed VS left the ring (its owner died and the successor
          absorbed it) between VSA and VST *)
  skipped_owner_changed : int;
      (** the VS exists but is no longer owned by the pairing's heavy
          node (e.g. an earlier transfer re-homed it) *)
  skipped_dest_dead : int;
      (** the assigned light node died before the transfer landed *)
  aborted : int;
      (** transactions rolled back by faults — the sum of the five
          per-cause counters below; always 0 under a quiet plan *)
  aborted_prepare_lost : int;  (** PREPARE timed out; nothing moved *)
  aborted_partitioned : int;
      (** a partition cut separated the endpoints; the VS stayed (or
          was rolled back) home *)
  aborted_src_crashed : int;
      (** the heavy owner fail-stopped mid-window; the VS was absorbed
          by its successor along with the rest of the owner's ring
          state *)
  aborted_dest_crashed : int;
      (** the light node fail-stopped mid-window; the VS never left
          its heavy owner *)
  aborted_commit_lost : int;
      (** the COMMIT ack timed out; the VS was rolled back to its
          heavy owner *)
  deduped : int;
      (** duplicated TRANSFER deliveries recognised by their sequence
          number and dropped instead of double-applied *)
  restructure_messages : int;
}

val apply :
  ?tree:Ktree.t ->
  ?obs:P2plb_obs.Obs.t ->
  ?faults:Faults.t ->
  ?oracle:Graph.Oracle.t ->
  Dht.t ->
  Types.assignment list ->
  result
(** Each assignment is checked before its transaction: the VS must
    still be on the ring ([vs_gone]), owned by the pairing's heavy node
    ([owner_changed]), and the light node alive ([dest_dead]).  The
    check reads the assignment's handle [a_vs] ({!Dht.on_ring}), and
    the transfer goes through it, with no ring search.

    [tree] enables KT-migration message accounting (and is refreshed
    afterwards under the lazy-migration protocol).

    [oracle] prices each committed transfer in underlay hops for the
    distance histogram.  Omitting it skips the shortest-path queries
    and books every transfer at distance 0.

    [faults] supplies message loss, partition cuts, duplication and
    mid-window crashes (default: a fresh quiet plan,
    [Faults.create ~seed:0 Faults.none]).  A mid-window crash strikes
    only an endpoint that {!Dht.can_depart}; a shielded victim lets the
    transaction proceed.

    [obs] records one ["vst/transfer"] trace point per committed
    assignment (attributes [hops], [load] — Figures 7–8 are derivable
    from the trace alone), a cause-tagged ["vst/skip"] per dropped
    one, and cause-tagged ["vst/abort"] and ["vst/dedup"] points.  The
    round's totals are the enclosing ["phase/vst"] span's End attrs
    ({!Controller.run}). *)

val mean_transfer_distance : result -> float
(** Load-weighted mean hop distance; 0 when nothing moved. *)
