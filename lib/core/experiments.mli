module Histogram = P2plb_metrics.Histogram
module Workload = P2plb_workload.Workload
module Transit_stub = P2plb_topology.Transit_stub

(** The paper's evaluation (§5.2) and the registry that runs it.

    Each experiment function ([fig4] … [scale_run]) runs at the paper's
    parameters by default (4096 nodes x 5 VSs, K = 2, Gnutella
    capacities, 15 landmarks) and returns structured results; each
    [render_*] formats them as the table or plot the paper shows.

    {!registry} lists every experiment once: its name, a one-line doc,
    its size knobs and a [run] that returns the rendered report.  The
    [lb_sim] subcommands, [lb_sim all], the bench figure rows and the
    seq-vs-pool parity tests all iterate it, so a title, a default size
    or a table layout exists in one place.

    Every experiment that drives load-balancing rounds accepts
    [?obs:P2plb_obs.Obs.t] and threads it into each round (see
    {!Controller.run}), so the CLI's [--trace-out] / [--metrics-out]
    flags work uniformly; [None] leaves the runs untouched.

    Experiments made of independent scenarios (the graph sweeps, size
    sweeps, fault rows, ablations) also accept
    [?pool:P2plb_sim.Par.t] and fan their tasks out over its domains
    with {!P2plb_sim.Par.run}; results and sink contents are merged in
    task-index order, so every return value and digest is byte-identical
    to the default sequential pool (DESIGN.md §12).  [fig4]–[fig6],
    [churn] and [load_drift] are single runs or inherently sequential
    epoch chains and take no pool. *)

type balance_result = {
  unit_before : float array;  (** load/capacity per node, node order *)
  unit_after : float array;
  by_capacity_after : (float * float) array;  (** (capacity, load) *)
  heavy_before : int;
  heavy_after : int;
  n_nodes : int;
  moved_fraction : float;
  gini_before : float;
  gini_after : float;
}

val fig4 : ?obs:P2plb_obs.Obs.t -> ?seed:int -> ?n_nodes:int -> unit -> balance_result
(** Figure 4: unit-load scatter before/after one LB round, Gaussian
    loads.  Paper: ~75% of nodes heavy before; none after. *)

val render_fig4 : balance_result -> string

val fig5 : ?obs:P2plb_obs.Obs.t -> ?seed:int -> ?n_nodes:int -> unit -> balance_result
(** Figure 5: load vs node capacity after LB, Gaussian loads.
    Paper: higher-capacity nodes carry proportionally more load. *)

val fig6 : ?obs:P2plb_obs.Obs.t -> ?seed:int -> ?n_nodes:int -> unit -> balance_result
(** Figure 6: same as Fig. 5 with Pareto(1.5) loads. *)

type proximity_result = {
  aware : Histogram.t;   (** moved load by underlay hop distance *)
  ignorant : Histogram.t;
  aware_mean : float;    (** load-weighted mean transfer distance *)
  ignorant_mean : float;
  locality_ceiling : float;
      (** fraction of shed load that could possibly have stayed inside
          its own stub domain given each domain's supply and demand —
          an upper bound on the CDF at intra-domain distances *)
  graphs : int;  (** topology instances aggregated (paper: 10) *)
}

val fig7 :
  ?pool:P2plb_sim.Par.t ->
  ?obs:P2plb_obs.Obs.t ->
  ?seed:int -> ?graphs:int -> ?n_nodes:int -> unit -> proximity_result
(** Figure 7: moved-load distance distribution and CDF on ts5k-large.
    Paper: aware ≈67% of moved load within 2 hops, ≈86% within 10;
    ignorant ≈13% within 10. *)

val fig8 :
  ?pool:P2plb_sim.Par.t ->
  ?obs:P2plb_obs.Obs.t ->
  ?seed:int -> ?graphs:int -> ?n_nodes:int -> unit -> proximity_result
(** Figure 8: same on ts5k-small (nodes scattered Internet-wide). *)

val render_proximity : title:string -> proximity_result -> string
(** Distribution table, CDF table and an ASCII CDF plot. *)

type tvsa_result = {
  k : int;
  n_nodes_sweep : (int * int * int) list;
      (** (N, tree depth, VSA rounds) per network size *)
}

val tvsa :
  ?pool:P2plb_sim.Par.t ->
  ?obs:P2plb_obs.Obs.t -> ?seed:int -> k:int -> unit -> tvsa_result
(** The O(log_K N) claim: VSA round count versus N for a K-nary
    tree, N in 256..4096. *)

val render_tvsa : tvsa_result list -> string

type baseline_row = {
  scheme : string;
  b_heavy_before : int;
  b_heavy_after : int;
  b_moved : float;  (** fraction of total load *)
  b_mean_distance : float;
  b_cdf10 : float;
}

val baselines :
  ?pool:P2plb_sim.Par.t ->
  ?obs:P2plb_obs.Obs.t -> ?seed:int -> ?n_nodes:int -> unit -> baseline_row list
(** Our scheme (aware + ignorant) against CFS shedding and the three
    Rao et al. schemes, all on the same ts5k-large instance. *)

val render_baselines : baseline_row list -> string

type churn_result = {
  crashed : int;
  joined : int;
  tree_consistent_after : bool;
  refresh_messages : int;
  heavy_after_churn_lb : int;
      (** heavy nodes remaining after one post-churn LB round *)
}

val churn :
  ?obs:P2plb_obs.Obs.t ->
  ?seed:int -> ?n_nodes:int -> ?crash_fraction:float -> unit -> churn_result
(** Self-repair (§3.1.1): crash a fraction of nodes, join fresh ones,
    refresh the KT tree, check structural consistency, then run one
    LB round on the churned network. *)

type resilience_row = {
  z_crash_fraction : float;  (** fault-plan crash fraction *)
  z_message_loss : float;    (** per-send loss probability *)
  z_duplicate_prob : float;  (** per-message duplication probability *)
  z_transfer_crash : float;  (** mid-transfer crash-window probability *)
  z_partitions : int;        (** partition episodes in the fault plan *)
  z_crashes : int;           (** crashes that actually fired *)
  z_final_live : int;
  z_heavy_fraction : float;  (** heavy after / live after *)
  z_moved_factor : float;    (** total moved load / initial total load *)
  z_repairs : int;           (** KT nodes re-planted across rounds *)
  z_repair_messages : int;
  z_retries : int;
  z_timeouts : int;
  z_aborted : int;           (** transfers rolled back by the VST protocol *)
  z_deduped : int;           (** duplicated TRANSFERs suppressed by seq *)
  z_rounds : int;
  z_invariants_ok : bool;
      (** per-round {!Invariants.all} (incl. VS conservation) plus a
          final whole-battery pass *)
}

val resilience :
  ?pool:P2plb_sim.Par.t ->
  ?obs:P2plb_obs.Obs.t ->
  ?seed:int -> ?n_nodes:int -> ?max_rounds:int -> unit -> resilience_row list
(** The fault-injection experiment: multiround balancing with node
    crashes firing {e at the phase barriers inside} each round plus
    per-message loss, swept over churn rates (0%..30% crashes,
    0%..5% loss), then over transfer-path faults (duplication,
    mid-transfer crash windows, partition episodes) that engage the
    transactional VST protocol.  The all-zero row doubles as the
    zero-perturbation control: it must match the fault-free numbers
    exactly. *)

type overhead_row = {
  o_nodes : int;
  o_tree_messages : int;      (** build + sweeps + refresh *)
  o_publish_hops : int;       (** aware-mode record publication *)
  o_direct_messages : int;    (** rendezvous -> endpoint notifications *)
  o_restructure_messages : int;  (** lazy KT migration after VST *)
  o_transfers : int;
}

val overhead :
  ?pool:P2plb_sim.Par.t ->
  ?obs:P2plb_obs.Obs.t -> ?seed:int -> unit -> overhead_row list
(** The load-balancing {e cost} the paper argues about: message counts
    of each phase as the network grows (N in 512..4096). *)

type durability_row = {
  d_replication : int;
  d_crashed_fraction : float;
  d_availability_before_repair : float;
  d_lost_fraction : float;       (** objects unrecoverable after repair *)
  d_bytes_copied : float;        (** re-replication traffic, fraction of store *)
}

val durability :
  ?pool:P2plb_sim.Par.t ->
  ?seed:int -> ?n_nodes:int -> ?n_objects:int -> unit -> durability_row list
(** The replicated-store substrate under churn: availability and loss
    for replication factors 1..4 when 20% of nodes crash at once. *)

type drift_row = {
  t_epoch : int;
  t_heavy_before : int;
  t_heavy_after : int;
  t_moved_fraction : float;
}

val load_drift :
  ?obs:P2plb_obs.Obs.t ->
  ?seed:int -> ?n_nodes:int -> ?epochs:int -> unit -> drift_row list
(** Periodic balancing under load drift: each epoch redraws 20% of the
    virtual servers' loads (object churn), then runs one LB round.
    After the initial alignment, per-epoch moved load stays small —
    the steady-state cost of keeping a live system balanced. *)

(** {1 The scale tier} *)

type scale_row = {
  sc_nodes : int;
  sc_workload : string;  (** ["gaussian"] or ["pareto"] *)
  sc_heavy_before : int;  (** heavy census before the first round *)
  sc_heavy_after : int;   (** heavy census after the last round run *)
  sc_rounds : int;        (** rounds actually run *)
  sc_converged : bool;    (** no heavy node remained *)
  sc_fixed_point : bool;
      (** a round moved no load while heavies remained: each residual
          heavy holds a single VS whose load already exceeds the
          node's (near-zero) fair target, so VS transfer alone cannot
          fix it — the known granularity limit of the paper's scheme *)
  sc_moved_fraction : float;
      (** cumulative per-round moved-load fractions *)
  sc_mean_hops : float;
      (** load-weighted mean underlay hops of every transfer across
          the rounds run; 0 when nothing moved *)
  sc_tree_depth : int;
}

val scale_run :
  ?pool:P2plb_sim.Par.t ->
  ?obs:P2plb_obs.Obs.t ->
  ?seed:int -> ?sizes:int list -> ?rounds:int -> unit -> scale_row list
(** The scale tier: for each size (on a {!Transit_stub.scaled}
    underlay) and each of the Gaussian and Pareto workloads, repeat
    full LB rounds on the mutating DHT until convergence (no heavy
    node remains), a fixed point (a round moves nothing — see
    [sc_fixed_point]), or [rounds] (default 8) rounds have run.
    Transfers are priced in underlay hops, as at paper scale.  Tasks
    fan out over [pool]; results are in task order (sizes major,
    workloads minor). *)

(** {1 The experiment registry} *)

type size =
  | Unsized  (** sweeps its own network sizes (tvsa, overhead) *)
  | Nodes of int  (** sized by [--nodes], with this default *)
  | Nodes_graphs of int
      (** sized by [--nodes] (this default) and [--graphs]; the report
          carries CSV series *)
  | Sizes  (** the scale tier: sized by [--sizes] and [--rounds] *)

type params = {
  p_seed : int;
  p_nodes : int;  (** read by [Nodes] and [Nodes_graphs] entries *)
  p_graphs : int;  (** read by [Nodes_graphs] entries *)
  p_sizes : int list;  (** read by [Sizes] entries *)
  p_rounds : int;  (** read by [Sizes] entries *)
}

val defaults : params
(** Seed 1, the paper's 4096 nodes and 10 graphs, and the scale tier's
    sweep: sizes 32768, 65536 and 131072 (8–32x the paper's 4096),
    8 rounds each. *)

type report = {
  text : string;  (** the rendered tables *)
  csv : (string * string) list;
      (** (file stem, CSV) series; empty unless the entry is
          [Nodes_graphs] *)
}

type entry = {
  name : string;  (** the [lb_sim] subcommand and the bench row *)
  doc : string;  (** one line: the subcommand's help *)
  size : size;
  pooled : bool;  (** fans its tasks out over [pool] (takes [--jobs]) *)
  run : pool:P2plb_sim.Par.t -> ?obs:P2plb_obs.Obs.t -> params -> report;
}

val registry : entry list
(** Every experiment of the evaluation: {!suite}, then the scale tier. *)

val suite : entry list
(** {!registry} without the [Sizes] entries, in the order [lb_sim all]
    and the bench figure rows run them. *)

val suite_params : params -> entry -> params
(** The parameters [entry] runs with when a whole suite runs at [p]:
    an entry whose default is below the paper's 4096 nodes (the slower
    sweeps and epoch chains) runs at no more than that default. *)
