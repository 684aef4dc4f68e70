module Dht = P2plb_chord.Dht
module Ktree = P2plb_ktree.Ktree
module Hilbert = P2plb_hilbert.Hilbert
module Histogram = P2plb_metrics.Histogram
module Faults = P2plb_sim.Faults

(** The complete four-phase load-balancing round (paper §1.2):
    LBI aggregation → node classification → virtual-server assignment
    → virtual-server transferring, with or without the
    proximity-aware mechanism.

    Every round runs under exactly one fault plan ({!Faults.t}),
    threaded through all four phases; a caller that passes none gets
    a quiet plan, which injects nothing and draws no randomness.  The
    round tolerates churn: the plan's armed crash, partition and heal
    events fire at the inter-phase barriers, lost messages are retried
    up to the plan's attempt budget, orphaned KT nodes are re-planted
    before each sweep, stale records are dropped at rendezvous, and
    unapplicable transfers are skipped per cause — the round always
    completes on whatever nodes remain alive.

    Phase 4 is the transactional protocol of {!Vst}: under
    transfer-path faults (partitions, duplication, mid-transfer crash
    windows) transfers abort per cause rather than half-applying.  The
    ["phase/vst"] span always carries [aborted] and [deduped]
    attributes, 0 without such faults. *)

type config = {
  k : int;  (** K-nary tree degree; paper evaluates 2 and 8 *)
  epsilon_rel : float;
      (** balance slack as a fraction of the mean unit load: the
          absolute [epsilon] of §3.3 is [epsilon_rel * L / C].  0 is
          the paper's ideal; a few percent lets the marginal shed VSs
          pair instead of fragmenting (trade-off §3.3 describes). *)
  threshold : int;  (** rendezvous threshold (§3.4); paper suggests 30 *)
  proximity : bool;  (** use the proximity-aware VSA (§4) *)
  hilbert_order : int;  (** grid bits per landmark axis (§4.2.1) *)
  curve : Hilbert.curve;
  binning : P2plb_landmark.Landmark.binning;
  route_messages : bool;
      (** charge Chord routing hops for tree construction *)
  account_distance : bool;
      (** price committed transfers in underlay hops via the distance
          oracle (default).  Off, every transfer is booked at distance
          0 and the oracle is never queried. *)
}

val default : config
(** k = 2, epsilon_rel = 0.05, threshold = 30, proximity on,
    order = 2, Hilbert curve, distance accounting on. *)

type outcome = {
  lbi : Types.lbi;
  epsilon : float;  (** the absolute epsilon used *)
  census_before : int * int * int;  (** heavy, light, neutral *)
  census_after : int * int * int;
  vsa : Vsa.result;
  vst : Vst.result;
  tree_depth : int;
  tree_nodes : int;
  lbi_rounds : int;
  vsa_rounds : int;
  tree_messages : int;  (** build + sweeps + refresh messages *)
  unit_loads_before : float array;
  unit_loads_after : float array;
  retries : int;  (** message retransmissions this round *)
  timeouts : int;  (** sends abandoned after all retries *)
  kt_repairs : int;  (** KT nodes re-planted by in-round repair *)
  kt_repair_messages : int;
}

val run :
  ?config:config -> ?faults:Faults.t -> ?obs:P2plb_obs.Obs.t -> Scenario.t ->
  outcome
(** One load-balancing round over the scenario's current loads.
    Mutates the scenario's DHT (virtual servers move).  [faults] is the
    round's fault plan (default: a fresh quiet one,
    [Faults.create ~seed:0 Faults.none]): it injects message loss and
    sets the retry budget for LBI, VSA and VST alike.  The round spans
    one unit of simulated time with barriers at 0.2, 0.4, 0.7 and 1.0;
    when [faults] is armed ({!Faults.arm}) the round starts at the
    plan's clock and each barrier fires the plan's events due by then
    ({!Faults.fire_until}), so crashes, partitions and heals land
    mid-round.  The 1.0 barrier comes after [census_after] and
    [unit_loads_after] are taken.

    [obs] records the round as five spans — ["phase/kt_build"],
    ["phase/lbi"], ["phase/classify"], ["phase/vsa"], ["phase/vst"]
    (tagged with the round's aware/ignorant [mode]) — each carrying
    per-phase message counts, sweep depths and the number of plan
    events fired ([events]), plus the point events of every
    instrumented subsystem (faults, KT repair, VST transfers).  Trace
    timestamps are simulated time: without an armed plan the round
    starts at the trace's clock; wall clocks are never read, so
    same-seed traces are byte-identical.  Passing [obs] does not
    perturb the round itself. *)

val moved_fraction : outcome -> float
(** Moved load as a fraction of total system load. *)

val cdf_at : outcome -> hops:int -> float
(** Fraction of moved load transferred within [hops] underlay hops —
    the y-axis of the paper's Figures 7(b) and 8(b). *)
