module Histogram = P2plb_metrics.Histogram
module Workload = P2plb_workload.Workload
module Transit_stub = P2plb_topology.Transit_stub

(** The paper's evaluation (§5.2) and the registry that runs it.

    {!registry} lists every experiment once: its name, a one-line doc,
    its size knobs and a [run] that returns the rendered report.  The
    [lb_sim] subcommands, [lb_sim all], the bench figure rows and the
    seq-vs-pool parity tests all iterate it, so a title, a default size
    or a table layout exists in one place.  Each experiment runs at
    the paper's parameters by default (4096 nodes x 5 VSs, K = 2,
    Gnutella capacities, 15 landmarks).

    The experiment functions exported below ([fig4], [fig7], [tvsa],
    [baselines], [churn]) return structured results, and each [render_*]
    formats them as the table or plot the paper shows; the others are
    reached through {!registry} only.

    Every experiment that drives load-balancing rounds accepts
    [?obs:P2plb_obs.Obs.t] and threads it into each round (see
    {!Controller.run}), so the CLI's [--trace-out] / [--metrics-out]
    flags work uniformly; [None] leaves the runs untouched.

    Experiments made of independent scenarios (the graph sweeps, size
    sweeps, fault rows, ablations) also accept
    [?pool:P2plb_sim.Par.t] and fan their tasks out over its domains
    with {!P2plb_sim.Par.run}; results and sink contents are merged in
    task-index order, so every return value and digest is byte-identical
    to the default sequential pool (DESIGN.md §12).  Figs. 4–6, [churn]
    and [drift] are single runs or inherently sequential epoch chains
    and take no pool. *)

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
