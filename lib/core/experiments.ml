module Prng = P2plb_prng.Prng
module Dht = P2plb_chord.Dht
module Ktree = P2plb_ktree.Ktree
module Transit_stub = P2plb_topology.Transit_stub
module Hilbert = P2plb_hilbert.Hilbert
module Histogram = P2plb_metrics.Histogram
module Stats = P2plb_metrics.Stats
module Report = P2plb_metrics.Report
module Workload = P2plb_workload.Workload
module Store = P2plb_chord.Store
module Par = P2plb_sim.Par
module Csv = P2plb_metrics.Csv

(* ---- common ----------------------------------------------------------- *)

type balance_result = {
  unit_before : float array;
  unit_after : float array;
  by_capacity_after : (float * float) array;
  heavy_before : int;
  heavy_after : int;
  n_nodes : int;
  moved_fraction : float;
  gini_before : float;
  gini_after : float;
}

let balance_run ?obs ~seed ~n_nodes ~workload () =
  let config = { Scenario.default with n_nodes; workload } in
  let s = Scenario.build ~seed config in
  let o = Controller.run ?obs s in
  let hb, _, _ = o.Controller.census_before in
  let ha, _, _ = o.Controller.census_after in
  {
    unit_before = o.Controller.unit_loads_before;
    unit_after = o.Controller.unit_loads_after;
    by_capacity_after = Scenario.loads_by_capacity s;
    heavy_before = hb;
    heavy_after = ha;
    n_nodes = Dht.n_nodes s.Scenario.dht;
    moved_fraction = Controller.moved_fraction o;
    gini_before = Stats.gini o.Controller.unit_loads_before;
    gini_after = Stats.gini o.Controller.unit_loads_after;
  }

let fig4 ?obs ?(seed = 1) ?(n_nodes = 4096) () =
  balance_run ?obs ~seed ~n_nodes ~workload:Workload.default_gaussian ()

let fig6 ?obs ?(seed = 1) ?(n_nodes = 4096) () =
  balance_run ?obs ~seed ~n_nodes ~workload:Workload.default_pareto ()

let percentiles_row label xs =
  [
    label;
    Report.float_cell (Stats.percentile xs 50.0);
    Report.float_cell (Stats.percentile xs 90.0);
    Report.float_cell (Stats.percentile xs 99.0);
    Report.float_cell (Array.fold_left Float.max xs.(0) xs);
  ]

let render_fig4 r =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "Figure 4 — unit load (load/capacity) before and after one LB round\n\
        nodes=%d  heavy before=%d (%.1f%%)  heavy after=%d  moved=%.1f%% of \
        total load\n\
        gini(unit load): before=%.3f after=%.3f\n\n"
       r.n_nodes r.heavy_before
       (100.0 *. float_of_int r.heavy_before /. float_of_int r.n_nodes)
       r.heavy_after
       (100.0 *. r.moved_fraction)
       r.gini_before r.gini_after);
  Buffer.add_string buf
    (Report.table
       ~header:[ "unit load"; "p50"; "p90"; "p99"; "max" ]
       [
         percentiles_row "before" r.unit_before;
         percentiles_row "after" r.unit_after;
       ]);
  let scatter label xs =
    ( label,
      Array.to_list (Array.mapi (fun i x -> (float_of_int i, x)) xs) )
  in
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Report.ascii_plot ~title:"unit load per node (before vs after)"
       ~x_label:"node" ~y_label:"load/capacity"
       ~series:[ scatter "before" r.unit_before; scatter "after" r.unit_after ]
       ());
  Buffer.contents buf

(* Per-capacity-category mean load versus the capacity-proportional
   fair share — the alignment Figs. 5–6 demonstrate. *)
let render_capacity_alignment ~title r =
  let cats = Array.length Workload.capacity_levels in
  let sums = Array.make cats 0.0 and counts = Array.make cats 0 in
  Array.iter
    (fun (c, l) ->
      let i = Workload.capacity_category c in
      sums.(i) <- sums.(i) +. l;
      counts.(i) <- counts.(i) + 1)
    r.by_capacity_after;
  let total_load = Array.fold_left ( +. ) 0.0 sums in
  let total_capacity =
    Array.fold_left (fun acc (c, _) -> acc +. c) 0.0 r.by_capacity_after
  in
  let rows =
    List.filter_map
      (fun i ->
        if counts.(i) = 0 then None
        else
          let cap = Workload.capacity_levels.(i) in
          let fair =
            total_load *. cap *. float_of_int counts.(i) /. total_capacity
          in
          Some
            [
              Report.float_cell cap;
              string_of_int counts.(i);
              Report.float_cell (sums.(i) /. float_of_int counts.(i));
              Report.percent_cell (sums.(i) /. total_load);
              Report.percent_cell (fair /. total_load);
            ])
      (List.init cats (fun i -> i))
  in
  Report.table
    ~title:
      (title
     ^ "\n(per capacity category: mean node load; share of total load held \
        vs capacity-proportional fair share)")
    ~header:
      [ "capacity"; "nodes"; "mean load"; "load share"; "fair share" ]
    rows

(* ---- proximity (Figs. 7 and 8) --------------------------------------- *)

type proximity_result = {
  aware : Histogram.t;
  ignorant : Histogram.t;
  aware_mean : float;
  ignorant_mean : float;
  locality_ceiling : float;
  graphs : int;
}

(* Upper bound on intra-stub-domain transfer: per stub domain,
   min(shed supply, light demand), summed, over total supply. *)
let locality_ceiling (s : Scenario.t) =
  let dht = s.Scenario.dht in
  let lbi = Lbi.exact dht in
  let epsilon = Controller.default.Controller.epsilon_rel *. lbi.l /. lbi.c in
  let supply = Hashtbl.create 256 and demand = Hashtbl.create 256 in
  let bump tbl k v =
    Hashtbl.replace tbl k
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
  in
  Dht.fold_nodes dht ~init:() ~f:(fun () n ->
      let g = Transit_stub.stub_domain_of s.Scenario.topo n.Dht.underlay in
      let target =
        Classify.target_load ~lbi ~epsilon ~capacity:n.Dht.capacity
      in
      let load = Dht.node_load n in
      if load > target then bump supply g (load -. target)
      else if target -. load >= lbi.l_min then bump demand g (target -. load));
  let supply_bindings =
    (* Materialised and sorted by stub domain: the float sums below
       must not depend on hash-table layout. *)
    let bs = Hashtbl.fold (fun g v acc -> (g, v) :: acc) supply [] in
    List.sort (fun (a, _) (b, _) -> Option.compare Int.compare a b) bs
  in
  let total = List.fold_left (fun a (_, v) -> a +. v) 0.0 supply_bindings in
  if total <= 0.0 then 0.0
  else
    List.fold_left
      (fun a (g, sv) ->
        a +. Float.min sv (Option.value ~default:0.0 (Hashtbl.find_opt demand g)))
      0.0 supply_bindings
    /. total

let proximity_run ?(pool = Par.sequential) ?obs ~seed ~graphs ~n_nodes ~topology
    () =
  if graphs < 1 then invalid_arg "Experiments: graphs < 1";
  (* One task per graph instance, running the aware then the ignorant
     mode (the historical iteration order) over one shared underlay:
     the topology, distance oracle and landmark space are built once
     and donated to the second build, so each graph pays for one
     oracle decomposition and one set of memoised rows across both
     modes.  Results are folded back in task-index order so histogram
     merges and the ceiling sum accumulate exactly as the sequential
     loop did. *)
  let results =
    Par.run pool ?obs ~n:graphs (fun g obs ->
        let config = { Scenario.default with n_nodes; topology } in
        let seed = seed + (1000 * g) in
        let s = Scenario.build ~seed config in
        let ceiling = locality_ceiling s in
        let run_mode ~base ~proximity =
          let s =
            match base with Some _ -> Scenario.build ?base ~seed config | None -> s
          in
          let cc = { Controller.default with Controller.proximity } in
          let o = Controller.run ~config:cc ?obs s in
          o.Controller.vst.Vst.hist
        in
        let aware = run_mode ~base:None ~proximity:true in
        let ignorant = run_mode ~base:(Some s) ~proximity:false in
        (aware, ignorant, ceiling))
  in
  let aware = ref (Histogram.create ())
  and ignorant = ref (Histogram.create ()) in
  let ceilings = ref 0.0 in
  Array.iter
    (fun (ah, ih, ceiling) ->
      ceilings := !ceilings +. ceiling;
      aware := Histogram.merge !aware ah;
      ignorant := Histogram.merge !ignorant ih)
    results;
  {
    aware = !aware;
    ignorant = !ignorant;
    aware_mean = Histogram.mean !aware;
    ignorant_mean = Histogram.mean !ignorant;
    locality_ceiling = !ceilings /. float_of_int graphs;
    graphs;
  }

let fig7 ?pool ?obs ?(seed = 1) ?(graphs = 10) ?(n_nodes = 4096) () =
  proximity_run ?pool ?obs ~seed ~graphs ~n_nodes
    ~topology:Transit_stub.ts5k_large ()

let fig8 ?pool ?obs ?(seed = 1) ?(graphs = 10) ?(n_nodes = 4096) () =
  proximity_run ?pool ?obs ~seed ~graphs ~n_nodes
    ~topology:Transit_stub.ts5k_small ()

let render_proximity ~title r =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "%s\n\
        (%d topology instances; load-weighted mean transfer distance: \
        aware=%.2f, ignorant=%.2f;\n\
        intra-stub-domain locality ceiling=%.1f%%)\n\n"
       title r.graphs r.aware_mean r.ignorant_mean
       (100.0 *. r.locality_ceiling));
  let max_bin = Int.max (Histogram.max_bin r.aware) (Histogram.max_bin r.ignorant) in
  let rows =
    List.filter_map
      (fun b ->
        let fa = Histogram.fraction_at r.aware b
        and fi = Histogram.fraction_at r.ignorant b in
        if fa = 0.0 && fi = 0.0 then None
        else
          Some
            [
              string_of_int b;
              Report.percent_cell fa;
              Report.percent_cell fi;
              Report.percent_cell (Histogram.cumulative_fraction r.aware b);
              Report.percent_cell (Histogram.cumulative_fraction r.ignorant b);
            ])
      (List.init (max_bin + 1) (fun b -> b))
  in
  Buffer.add_string buf
    (Report.table
       ~header:
         [ "hops"; "aware %"; "ignorant %"; "aware CDF"; "ignorant CDF" ]
       rows);
  let cdf_series h =
    List.map (fun (b, f) -> (float_of_int b, f)) (Histogram.to_cdf h)
  in
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Report.ascii_plot ~title:"CDF of moved load vs transfer distance"
       ~x_label:"hops" ~y_label:"CDF"
       ~series:
         [
           ("proximity-aware", cdf_series r.aware);
           ("proximity-ignorant", cdf_series r.ignorant);
         ]
       ());
  Buffer.contents buf

(* ---- T-vsa: O(log_K N) rounds ---------------------------------------- *)

type tvsa_result = {
  k : int;
  n_nodes_sweep : (int * int * int) list;
}

let tvsa ?(pool = Par.sequential) ?obs ?(seed = 1) ~k () =
  let sizes = [| 256; 512; 1024; 2048; 4096 |] in
  let rows =
    Par.run pool ?obs ~n:(Array.length sizes) (fun i obs ->
        let n_nodes = sizes.(i) in
        let config = { Scenario.default with n_nodes } in
        let s = Scenario.build ~seed config in
        let cc = { Controller.default with Controller.k } in
        let o = Controller.run ~config:cc ?obs s in
        (n_nodes, o.Controller.tree_depth, o.Controller.vsa_rounds))
  in
  { k; n_nodes_sweep = Array.to_list rows }

let render_tvsa results =
  let rows =
    List.concat_map
      (fun r ->
        List.map
          (fun (n, depth, rounds) ->
            [
              string_of_int r.k;
              string_of_int n;
              string_of_int depth;
              string_of_int rounds;
            ])
          r.n_nodes_sweep)
      results
  in
  Report.table
    ~title:
      "T-vsa — VSA sweep rounds vs network size (the paper's O(log_K N) \
       claim; depth is bounded by the 32-bit id space, not by N alone)"
    ~header:[ "K"; "nodes"; "tree depth"; "VSA rounds" ] rows

(* ---- baselines -------------------------------------------------------- *)

type baseline_row = {
  scheme : string;
  b_heavy_before : int;
  b_heavy_after : int;
  b_moved : float;
  b_mean_distance : float;
  b_cdf10 : float;
}

let baselines ?(pool = Par.sequential) ?obs ?(seed = 1) ?(n_nodes = 4096) () =
  let config = { Scenario.default with n_nodes } in
  let fresh () = Scenario.build ~seed config in
  let ours proximity name obs =
    let s = fresh () in
    let total = Dht.total_load s.Scenario.dht in
    let cc = { Controller.default with Controller.proximity } in
    let o = Controller.run ~config:cc ?obs s in
    let hb, _, _ = o.Controller.census_before in
    let ha, _, _ = o.Controller.census_after in
    {
      scheme = name;
      b_heavy_before = hb;
      b_heavy_after = ha;
      b_moved = o.Controller.vst.Vst.moved_load /. total;
      b_mean_distance = Histogram.mean o.Controller.vst.Vst.hist;
      b_cdf10 = Histogram.cumulative_fraction o.Controller.vst.Vst.hist 10;
    }
  in
  let baseline name run =
    let s = fresh () in
    let total = Dht.total_load s.Scenario.dht in
    let r : Baselines.result =
      run ~rng:s.Scenario.rng ~oracle:s.Scenario.oracle s.Scenario.dht
    in
    {
      scheme = name;
      b_heavy_before = r.Baselines.heavy_before;
      b_heavy_after = r.Baselines.heavy_after;
      b_moved = r.Baselines.moved_load /. total;
      b_mean_distance = Histogram.mean r.Baselines.hist;
      b_cdf10 = Histogram.cumulative_fraction r.Baselines.hist 10;
    }
  in
  (* Rows 0–1 run a balancing round; the baseline schemes never touch
     the obs bundle. *)
  let rows : (P2plb_obs.Obs.t option -> baseline_row) array =
    [|
      (fun obs -> ours true "ours (proximity-aware)" obs);
      (fun obs -> ours false "ours (proximity-ignorant)" obs);
      (fun _ ->
        baseline "CFS shedding" (fun ~rng:_ ~oracle dht ->
            Baselines.cfs_shed ~oracle dht));
      (fun _ ->
        baseline "Rao one-to-one" (fun ~rng ~oracle dht ->
            Baselines.rao_one_to_one ~rng ~oracle dht));
      (fun _ ->
        baseline "Rao one-to-many" (fun ~rng ~oracle dht ->
            Baselines.rao_one_to_many ~rng ~oracle dht));
      (fun _ ->
        baseline "Rao many-to-many" (fun ~rng:_ ~oracle dht ->
            Baselines.rao_many_to_many ~oracle dht));
    |]
  in
  Array.to_list
    (Par.run pool ?obs ~n:(Array.length rows) (fun i obs -> rows.(i) obs))

let render_baselines rows =
  Report.table
    ~title:
      "Schemes compared on one ts5k-large instance (moved = fraction of \
       total load; distance in underlay hop units)"
    ~header:
      [ "scheme"; "heavy before"; "heavy after"; "moved"; "mean dist"; "CDF@10" ]
    (List.map
       (fun r ->
         [
           r.scheme;
           string_of_int r.b_heavy_before;
           string_of_int r.b_heavy_after;
           Report.percent_cell r.b_moved;
           Report.float_cell r.b_mean_distance;
           Report.percent_cell r.b_cdf10;
         ])
       rows)

(* ---- churn / self-repair ---------------------------------------------- *)

type churn_result = {
  crashed : int;
  joined : int;
  tree_consistent_after : bool;
  refresh_messages : int;
  heavy_after_churn_lb : int;
}

let churn ?obs ?(seed = 1) ?(n_nodes = 1024) ?(crash_fraction = 0.1) () =
  let config = { Scenario.default with n_nodes } in
  let s = Scenario.build ~seed config in
  let dht = s.Scenario.dht in
  let tree = Ktree.build ~k:2 dht in
  let crashed = int_of_float (crash_fraction *. float_of_int n_nodes) in
  Scenario.crash_nodes s crashed;
  Scenario.join_nodes s crashed;
  Ktree.reset_counters tree;
  Ktree.refresh tree dht;
  let consistent =
    match Ktree.check_consistent tree dht with Ok () -> true | Error _ -> false
  in
  let refresh_messages = Ktree.messages tree in
  let o = Controller.run ?obs s in
  let ha, _, _ = o.Controller.census_after in
  {
    crashed;
    joined = crashed;
    tree_consistent_after = consistent;
    refresh_messages;
    heavy_after_churn_lb = ha;
  }

let render_churn r =
  Printf.sprintf
    "Churn / self-repair: crashed %d nodes, joined %d fresh ones.\n\
     One KT refresh pass restored structural consistency: %b (%d messages).\n\
     One LB round on the churned network left %d heavy nodes.\n"
    r.crashed r.joined r.tree_consistent_after r.refresh_messages
    r.heavy_after_churn_lb

(* ---- mid-round churn resilience (fault-injection layer) ---------------- *)

type resilience_row = {
  z_crash_fraction : float;
  z_message_loss : float;
  z_duplicate_prob : float;
  z_transfer_crash : float;
  z_partitions : int;
  z_result : Multiround.result;
  z_moved_factor : float;  (* total moved load / initial total load *)
  z_invariants_ok : bool;
      (* the per-round checks plus a final whole-battery pass *)
}

let resilience ?(pool = Par.sequential) ?obs ?(seed = 1) ?(n_nodes = 1024)
    ?(max_rounds = 3) () =
  let cases =
    [|
      (0.0, 0.0, 0.0, 0.0, 0);
      (0.05, 0.01, 0.0, 0.0, 0);
      (0.1, 0.01, 0.0, 0.0, 0);
      (0.2, 0.02, 0.0, 0.0, 0);
      (0.3, 0.05, 0.0, 0.0, 0);
      (* transfer-path faults: the transactional VST protocol engages *)
      (0.1, 0.01, 0.1, 0.0, 0);
      (0.1, 0.01, 0.0, 0.1, 0);
      (0.0, 0.0, 0.0, 0.0, 1);
      (0.1, 0.02, 0.05, 0.05, 2);
    |]
  in
  Array.to_list
  @@ Par.run pool ?obs ~n:(Array.length cases) (fun i obs ->
      let ( crash_fraction,
            message_loss,
            duplicate_prob,
            transfer_crash,
            partitions ) =
        cases.(i)
      in
      let config = { Scenario.default with n_nodes } in
      let s = Scenario.build ~seed config in
      let dht = s.Scenario.dht in
      let total = Dht.total_load dht in
      let faults =
        P2plb_sim.Faults.create ~seed
          (P2plb_sim.Faults.churn ~crash_fraction ~message_loss
             ~duplicate_prob ~transfer_crash ~partitions ())
      in
      let check = Multiround.invariant_check ~faults ~expected_total:total dht in
      let r = Multiround.run ~faults ?obs ~max_rounds ~check s in
      let ok =
        Option.is_none r.Multiround.violation
        && Result.is_ok (Invariants.all ~expected_total:total dht)
      in
      {
        z_crash_fraction = crash_fraction;
        z_message_loss = message_loss;
        z_duplicate_prob = duplicate_prob;
        z_transfer_crash = transfer_crash;
        z_partitions = partitions;
        z_result = r;
        z_moved_factor = r.Multiround.total_moved /. total;
        z_invariants_ok = ok;
      })

let render_resilience rows =
  Report.table
    ~title:
      "Load balancing under mid-round churn, message loss and transfer-path \
       faults (up to 3 rounds):\n\
       crashes fire at phase barriers; lost messages retried up to the \
       plan's max_attempts; KT self-repairs;\n\
       duplicated/partitioned/crash-struck transfers handled by the \
       transactional VST protocol"
    ~header:
      [ "crash"; "loss"; "dup"; "xcrash"; "parts"; "crashes"; "live";
        "heavy after"; "moved"; "repairs"; "retries"; "timeouts"; "aborted";
        "dedup"; "invariants" ]
    (List.map
       (fun z ->
         let r = z.z_result in
         [
           Report.percent_cell z.z_crash_fraction;
           Report.percent_cell z.z_message_loss;
           Report.percent_cell z.z_duplicate_prob;
           Report.percent_cell z.z_transfer_crash;
           string_of_int z.z_partitions;
           string_of_int r.Multiround.crashes;
           string_of_int r.Multiround.final_live;
           Report.percent_cell
             (float_of_int r.Multiround.final_heavy
             /. float_of_int (Int.max 1 r.Multiround.final_live));
           Report.percent_cell z.z_moved_factor;
           string_of_int r.Multiround.total_repairs;
           string_of_int r.Multiround.total_retries;
           string_of_int r.Multiround.total_timeouts;
           string_of_int r.Multiround.total_aborted;
           string_of_int r.Multiround.total_deduped;
           (if z.z_invariants_ok then "ok" else "VIOLATED");
         ])
       rows)

(* ---- ablations --------------------------------------------------------- *)

(* Shared shape of the parameter-sweep ablations: one task per
   parameter value, each building its own scenario and running one
   traced round. *)
let sweep ?pool ?obs params run =
  let params = Array.of_list params in
  Array.to_list
    (Par.run
       (Option.value pool ~default:Par.sequential)
       ?obs ~n:(Array.length params)
       (fun i obs -> run params.(i) obs))

(* The five design-choice sweeps, each one traced round per parameter
   value on its own scenario, rendered as one table each.  The sweeps
   run in table order, so a shared [obs] records them in that order. *)
let ablations ?pool ?obs ~seed ~n_nodes () =
  let table ~title ~header values configure row =
    Report.table ~title ~header
      (sweep ?pool ?obs values (fun v obs ->
           let config, cc = configure v in
           let s = Scenario.build ~seed { config with Scenario.n_nodes } in
           row v (Controller.run ~config:cc ?obs s)))
  in
  let base cc = (Scenario.default, cc) in
  let f3 = Printf.sprintf "%.3f" in
  let cdfs o =
    [ f3 (Controller.cdf_at o ~hops:2); f3 (Controller.cdf_at o ~hops:10) ]
  in
  let epsilon =
    table ~title:"Ablation — epsilon_rel (balance slack vs residual heavies)"
      ~header:[ "epsilon_rel"; "heavy after"; "moved" ]
      [ 0.0; 0.01; 0.02; 0.05; 0.1; 0.2 ]
      (fun epsilon_rel -> base { Controller.default with epsilon_rel })
      (fun e o ->
        let ha, _, _ = o.Controller.census_after in
        [
          Printf.sprintf "%.2f" e;
          string_of_int ha;
          Printf.sprintf "%.1f%%" (100.0 *. Controller.moved_fraction o);
        ])
  in
  let threshold =
    table ~title:"Ablation — rendezvous threshold"
      ~header:[ "threshold"; "CDF@2"; "CDF@10" ]
      [ 5; 10; 30; 100; 300; 1000 ]
      (fun threshold -> base { Controller.default with threshold })
      (fun t o -> string_of_int t :: cdfs o)
  in
  let curve =
    table ~title:"Ablation — space-filling curve for VSA keys"
      ~header:[ "curve"; "CDF@2"; "CDF@10" ]
      [ Hilbert.Hilbert; Hilbert.Morton; Hilbert.Row_major ]
      (fun curve -> base { Controller.default with curve })
      (fun c o -> Hilbert.curve_to_string c :: cdfs o)
  in
  let k =
    table ~title:"Ablation — K-nary tree degree"
      ~header:[ "K"; "depth"; "KT nodes"; "messages" ]
      [ 2; 4; 8 ]
      (fun k -> base { Controller.default with k })
      (fun k o ->
        List.map string_of_int
          [ k; o.Controller.tree_depth; o.Controller.tree_nodes;
            o.Controller.tree_messages ])
  in
  let landmarks =
    table ~title:"Ablation — landmark count vs per-axis key resolution"
      ~header:[ "m"; "order"; "CDF@2"; "CDF@10" ]
      [ (4, 8); (6, 5); (8, 4); (15, 2); (15, 4); (30, 1) ]
      (fun (landmark_m, hilbert_order) ->
        ( { Scenario.default with landmark_m },
          { Controller.default with hilbert_order } ))
      (fun (m, order) o -> string_of_int m :: string_of_int order :: cdfs o)
  in
  String.concat "\n" [ epsilon; threshold; curve; k; landmarks ]

type overhead_row = {
  o_nodes : int;
  o_tree_messages : int;
  o_publish_hops : int;
  o_direct_messages : int;
  o_restructure_messages : int;
  o_transfers : int;
}

let overhead ?pool ?obs ?(seed = 1) () =
  sweep ?pool ?obs
    [ 512; 1024; 2048; 4096 ]
    (fun n_nodes obs ->
      let config = { Scenario.default with n_nodes } in
      let s = Scenario.build ~seed config in
      let o = Controller.run ?obs s in
      {
        o_nodes = n_nodes;
        o_tree_messages = o.Controller.tree_messages;
        o_publish_hops = o.Controller.vsa.Vsa.publish_hops;
        o_direct_messages = o.Controller.vsa.Vsa.direct_messages;
        o_restructure_messages = o.Controller.vst.Vst.restructure_messages;
        o_transfers = o.Controller.vst.Vst.transfers;
      })

let render_overhead rows =
  Report.table
    ~title:
      "Per-phase message cost of one load-balancing round vs network size"
    ~header:
      [ "nodes"; "tree msgs"; "publish hops"; "rendezvous msgs";
        "KT migration msgs"; "transfers" ]
    (List.map
       (fun r ->
         [
           string_of_int r.o_nodes;
           string_of_int r.o_tree_messages;
           string_of_int r.o_publish_hops;
           string_of_int r.o_direct_messages;
           string_of_int r.o_restructure_messages;
           string_of_int r.o_transfers;
         ])
       rows)

type durability_row = {
  d_replication : int;
  d_crashed_fraction : float;
  d_availability_before_repair : float;
  d_lost_fraction : float;
  d_bytes_copied : float;
}

let durability ?pool ?(seed = 1) ?(n_nodes = 512) ?(n_objects = 5000) () =
  sweep ?pool
    [ 1; 2; 3; 4 ]
    (fun r (_ : P2plb_obs.Obs.t option) ->
      let config = { Scenario.default with n_nodes } in
      let s = Scenario.build ~seed config in
      let dht = s.Scenario.dht in
      let store = Store.create ~replication:r () in
      let rng = Prng.create ~seed:(seed + r) in
      for i = 0 to n_objects - 1 do
        Store.insert store dht
          ~key:(P2plb_idspace.Id.hash_key i "obj")
          ~size:(1.0 +. Prng.float rng 9.0)
      done;
      let total = Store.total_bytes store in
      let crashed = n_nodes / 5 in
      Scenario.crash_nodes s crashed;
      let avail = Store.availability store dht in
      let stats = Store.repair store dht in
      {
        d_replication = r;
        d_crashed_fraction = float_of_int crashed /. float_of_int n_nodes;
        d_availability_before_repair = avail;
        d_lost_fraction = float_of_int stats.Store.lost /. float_of_int n_objects;
        d_bytes_copied = stats.Store.bytes_copied /. total;
      })

let render_durability rows =
  Report.table
    ~title:
      "Replicated store under a 20% simultaneous crash (5000 objects):\n\
       availability before repair, loss after repair, repair traffic"
    ~header:[ "r"; "crashed"; "avail before repair"; "lost"; "repair traffic" ]
    (List.map
       (fun d ->
         [
           string_of_int d.d_replication;
           Report.percent_cell d.d_crashed_fraction;
           Report.percent_cell d.d_availability_before_repair;
           Report.percent_cell d.d_lost_fraction;
           Report.percent_cell d.d_bytes_copied;
         ])
       rows)

type drift_row = {
  t_epoch : int;
  t_heavy_before : int;
  t_heavy_after : int;
  t_moved_fraction : float;
}

let load_drift ?obs ?(seed = 1) ?(n_nodes = 1024) ?(epochs = 6) () =
  let config = { Scenario.default with n_nodes } in
  let s = Scenario.build ~seed config in
  let dht = s.Scenario.dht in
  let rng = Prng.create ~seed:(seed + 17) in
  List.init epochs (fun epoch ->
      (* 20% of the virtual servers see their load redrawn: objects
         arrive and depart between balancing rounds. *)
      if epoch > 0 then
        Dht.fold_vs dht ~init:() ~f:(fun () v ->
            if Prng.bernoulli rng 0.2 then begin
              let region = Dht.region_of_vs dht v in
              let fraction =
                float_of_int (P2plb_idspace.Region.len region)
                /. float_of_int P2plb_idspace.Id.space_size
              in
              Dht.set_vs_load dht v
                (Workload.vs_load rng s.Scenario.config.Scenario.workload
                   ~fraction)
            end);
      let o = Controller.run ?obs s in
      let hb, _, _ = o.Controller.census_before in
      let ha, _, _ = o.Controller.census_after in
      {
        t_epoch = epoch;
        t_heavy_before = hb;
        t_heavy_after = ha;
        t_moved_fraction = Controller.moved_fraction o;
      })

let render_load_drift rows =
  Report.table
    ~title:
      "Periodic balancing under load drift (20% of VS loads redrawn per \
       epoch): steady-state rounds move far less than the initial one"
    ~header:[ "epoch"; "heavy before"; "heavy after"; "moved" ]
    (List.map
       (fun r ->
         [
           string_of_int r.t_epoch;
           string_of_int r.t_heavy_before;
           string_of_int r.t_heavy_after;
           Report.percent_cell r.t_moved_fraction;
         ])
       rows)

(* ---- the scale tier --------------------------------------------------- *)

type scale_row = {
  sc_nodes : int;
  sc_workload : string;
  sc_heavy_before : int;
  sc_heavy_after : int;
  sc_rounds : int;
  sc_converged : bool;
  sc_fixed_point : bool;
  sc_moved_fraction : float;
  sc_mean_hops : float;
  sc_tree_depth : int;
}

let scale_sizes = [ 32768; 65536; 131072 ]

let scale_workloads =
  [
    ("gaussian", Workload.default_gaussian);
    ("pareto", Workload.default_pareto);
  ]

let scale_rounds = 8

let scale_run ?(pool = Par.sequential) ?obs ?(seed = 1)
    ?(sizes = scale_sizes) ?(rounds = scale_rounds) () =
  if rounds < 1 then invalid_arg "Experiments.scale_run: rounds < 1";
  let tasks =
    Array.of_list
      (List.concat_map
         (fun n -> List.map (fun w -> (n, w)) scale_workloads)
         sizes)
  in
  let results =
    Par.run pool ?obs ~n:(Array.length tasks) (fun i obs ->
        let n, (wname, workload) = tasks.(i) in
        let config =
          {
            Scenario.default with
            n_nodes = n;
            workload;
            topology = Transit_stub.scaled ~n;
          }
        in
        let s = Scenario.build ~seed:(seed + (17 * i)) config in
        (* Rounds repeat on the mutated DHT until no node is heavy
           (converged), a round moves nothing (fixed point: the
           residual heavies hold a single VS already exceeding their
           near-zero fair target, which VS transfer alone cannot fix),
           or the round budget runs out.  Every VS load is positive, so
           a round moves nothing exactly when it commits no transfer:
           Multiround's stop rule. *)
        let r = Multiround.run ?obs ~max_rounds:rounds s in
        let outcomes =
          List.map (fun (m : Multiround.round) -> m.outcome) r.Multiround.rounds
        in
        let first = List.hd outcomes
        and last = List.nth outcomes (List.length outcomes - 1) in
        let moved, moved_load, hop_load =
          List.fold_left
            (fun (moved, moved_load, hop_load) o ->
              let v = o.Controller.vst in
              ( moved +. Controller.moved_fraction o,
                moved_load +. v.Vst.moved_load,
                hop_load +. (Vst.mean_transfer_distance v *. v.Vst.moved_load)
              ))
            (0.0, 0.0, 0.0) outcomes
        in
        let heavy_before, _, _ = first.Controller.census_before in
        let converged = r.Multiround.final_heavy = 0 in
        {
          sc_nodes = n;
          sc_workload = wname;
          sc_heavy_before = heavy_before;
          sc_heavy_after = r.Multiround.final_heavy;
          sc_rounds = List.length outcomes;
          sc_converged = converged;
          sc_fixed_point = r.Multiround.converged && not converged;
          sc_moved_fraction = moved;
          sc_mean_hops =
            (if moved_load > 0.0 then hop_load /. moved_load else 0.0);
          sc_tree_depth = last.Controller.tree_depth;
        })
  in
  Array.to_list results

let render_scale rows =
  Report.table
    ~title:
      "Scale tier: rounds to convergence (no heavy node remains) far \
       beyond the paper's 4096 nodes\n\
       (moved = cumulative per-round moved-load fractions; mean hops = \
       load-weighted underlay hops per transfer)"
    ~header:
      [
        "nodes"; "workload"; "heavy before"; "heavy after"; "rounds";
        "converged"; "moved"; "mean hops"; "tree depth";
      ]
    (List.map
       (fun r ->
         [
           string_of_int r.sc_nodes;
           r.sc_workload;
           string_of_int r.sc_heavy_before;
           string_of_int r.sc_heavy_after;
           string_of_int r.sc_rounds;
           (if r.sc_converged then "yes"
            else if r.sc_fixed_point then "fixed point"
            else "no");
           Report.percent_cell r.sc_moved_fraction;
           Report.float_cell r.sc_mean_hops;
           string_of_int r.sc_tree_depth;
         ])
       rows)

(* ---- the experiment registry ------------------------------------------ *)

type size = Unsized | Nodes of int | Nodes_graphs of int | Sizes

type params = {
  p_seed : int;
  p_nodes : int;
  p_graphs : int;
  p_sizes : int list;
  p_rounds : int;
}

let defaults =
  {
    p_seed = 1;
    p_nodes = 4096;
    p_graphs = 10;
    p_sizes = scale_sizes;
    p_rounds = scale_rounds;
  }

type report = { text : string; csv : (string * string) list }

type entry = {
  name : string;
  doc : string;
  size : size;
  pooled : bool;
  run : pool:Par.t -> ?obs:P2plb_obs.Obs.t -> params -> report;
}

let text s = { text = s; csv = [] }

let proximity_report name ~title r =
  {
    text = render_proximity ~title r;
    csv =
      [
        (name ^ "_aware", Csv.of_histogram r.aware);
        (name ^ "_ignorant", Csv.of_histogram r.ignorant);
      ];
  }

let registry =
  [
    {
      name = "fig4";
      doc = "Unit-load scatter before/after load balancing (Gaussian).";
      size = Nodes 4096;
      pooled = false;
      run =
        (fun ~pool:_ ?obs p ->
          text (render_fig4 (fig4 ?obs ~seed:p.p_seed ~n_nodes:p.p_nodes ())));
    };
    {
      name = "fig5";
      doc = "Load vs capacity category after LB (Gaussian).";
      size = Nodes 4096;
      pooled = false;
      run =
        (fun ~pool:_ ?obs p ->
          text
            (render_capacity_alignment
               ~title:"Figure 5 — load vs capacity after LB (Gaussian loads)"
               (fig4 ?obs ~seed:p.p_seed ~n_nodes:p.p_nodes ())));
    };
    {
      name = "fig6";
      doc = "Load vs capacity category after LB (Pareto).";
      size = Nodes 4096;
      pooled = false;
      run =
        (fun ~pool:_ ?obs p ->
          text
            (render_capacity_alignment
               ~title:"Figure 6 — load vs capacity after LB (Pareto loads)"
               (fig6 ?obs ~seed:p.p_seed ~n_nodes:p.p_nodes ())));
    };
    {
      name = "fig7";
      doc = "Moved-load distance distribution and CDF on ts5k-large.";
      size = Nodes_graphs 4096;
      pooled = true;
      run =
        (fun ~pool ?obs p ->
          proximity_report "fig7"
            ~title:
              "Figure 7 — moved load vs transfer distance, ts5k-large\n\
               (paper: aware 67% within 2 hops, 86% within 10; ignorant \
               13% within 10)"
            (fig7 ~pool ?obs ~seed:p.p_seed ~graphs:p.p_graphs
               ~n_nodes:p.p_nodes ()));
    };
    {
      name = "fig8";
      doc = "Moved-load distance distribution and CDF on ts5k-small.";
      size = Nodes_graphs 4096;
      pooled = true;
      run =
        (fun ~pool ?obs p ->
          proximity_report "fig8"
            ~title:
              "Figure 8 — moved load vs transfer distance, ts5k-small\n\
               (paper: aware still clearly ahead of ignorant with nodes \
               scattered Internet-wide)"
            (fig8 ~pool ?obs ~seed:p.p_seed ~graphs:p.p_graphs
               ~n_nodes:p.p_nodes ()));
    };
    {
      name = "tvsa";
      doc = "VSA rounds vs network size for K = 2 and K = 8.";
      size = Unsized;
      pooled = true;
      run =
        (fun ~pool ?obs p ->
          let seed = p.p_seed in
          text
            (render_tvsa
               [ tvsa ~pool ?obs ~seed ~k:2 (); tvsa ~pool ?obs ~seed ~k:8 () ]));
    };
    {
      name = "baselines";
      doc = "Compare against CFS shedding and the Rao et al. schemes.";
      size = Nodes 4096;
      pooled = true;
      run =
        (fun ~pool ?obs p ->
          text
            (render_baselines
               (baselines ~pool ?obs ~seed:p.p_seed ~n_nodes:p.p_nodes ())));
    };
    {
      name = "churn";
      doc = "Self-repair: crash/join nodes, refresh the KT tree, rebalance.";
      size = Nodes 1024;
      pooled = false;
      run =
        (fun ~pool:_ ?obs p ->
          text
            (render_churn (churn ?obs ~seed:p.p_seed ~n_nodes:p.p_nodes ())));
    };
    {
      name = "resilience";
      doc =
        "Fault injection: mid-round crashes + message loss, KT repair, \
         retries.";
      size = Nodes 1024;
      pooled = true;
      run =
        (fun ~pool ?obs p ->
          text
            (render_resilience
               (resilience ~pool ?obs ~seed:p.p_seed ~n_nodes:p.p_nodes ())));
    };
    {
      name = "overhead";
      doc = "Per-phase message cost of one LB round vs network size.";
      size = Unsized;
      pooled = true;
      run =
        (fun ~pool ?obs p ->
          text (render_overhead (overhead ~pool ?obs ~seed:p.p_seed ())));
    };
    {
      name = "durability";
      doc = "Replicated-store availability and loss under churn.";
      size = Nodes 512;
      pooled = true;
      run =
        (fun ~pool ?obs:_ p ->
          text
            (render_durability
               (durability ~pool ~seed:p.p_seed ~n_nodes:p.p_nodes ())));
    };
    {
      name = "drift";
      doc = "Periodic balancing under load drift.";
      size = Nodes 1024;
      pooled = false;
      run =
        (fun ~pool:_ ?obs p ->
          text
            (render_load_drift
               (load_drift ?obs ~seed:p.p_seed ~n_nodes:p.p_nodes ())));
    };
    {
      name = "ablations";
      doc = "Design-choice sweeps: epsilon, threshold, curve, K.";
      size = Nodes 2048;
      pooled = true;
      run =
        (fun ~pool ?obs p ->
          text (ablations ~pool ?obs ~seed:p.p_seed ~n_nodes:p.p_nodes ()));
    };
    {
      name = "scale";
      doc =
        "Scale tier: run the balancer to convergence at 32k/65k/131k nodes \
         and report rounds, residual heavies, moved load and mean transfer \
         hops.";
      size = Sizes;
      pooled = true;
      run =
        (fun ~pool ?obs p ->
          text
            (render_scale
               (scale_run ~pool ?obs ~seed:p.p_seed ~sizes:p.p_sizes
                  ~rounds:p.p_rounds ())));
    };
  ]

let suite =
  List.filter (fun e -> match e.size with Sizes -> false | _ -> true) registry

let suite_params p e =
  match e.size with
  | (Nodes d | Nodes_graphs d) when d < defaults.p_nodes ->
    { p with p_nodes = Int.min p.p_nodes d }
  | Unsized | Nodes _ | Nodes_graphs _ | Sizes -> p
