(* What the benchmark promises: its command, workloads and metrics.
   BENCHMARK.json at the repository root is [to_json ()] as printed by
   [main.exe --spec]; test_perfbench fails when the two disagree, so a
   metric cannot be renamed in one place only. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;
      (** end-to-end metrics only: the share of the parent's median by
          which the metric may worsen before a change is rejected *)
}

let command = [ "python3"; "perfbench/run.py" ]
let paths = [ "perfbench" ]
let run_seconds = 30

let workloads =
  [
    ( "paper_fig7",
      "the paper's Fig. 7 setting: oracle pricing in VST and the proximity \
       path (landmarks, Hilbert keys, DHT publishes) do most of the work" );
    ( "scale_pareto",
      "Pareto loads, hop pricing off: the aggregation tree does the work, \
       the oracle is bypassed, and a fixed-point round moves nothing" );
    ( "churn_faults",
      "chaos fault mixes on 2 domains: retried sends, transactional VST \
       aborts, tree repair and Par, with invariants checked every round" );
  ]

let e2e name unit_ better bound = { name; unit_; better; bound = Some bound }
let layer ?(better = Lower) name unit_ = { name; unit_; better; bound = None }

let end_to_end =
  [
    e2e "setup_s" "s" Lower 0.25;
    e2e "balance_s" "s" Lower 0.25;
    e2e "cpu_s" "s" Lower 0.25;
    e2e "alloc_gb" "GB" Lower 0.2;
    e2e "peak_rss_mb" "MB" Lower 0.25;
    e2e "rounds" "count" Lower 0.25;
  ]

let per_layer =
  [
    layer "topology.generate_s" "s";
    layer "topology.oracle_create_s" "s";
    layer "chord.join_s" "s";
    layer "workload.assign_s" "s";
    layer "landmark.space_s" "s";
    layer "ktree.build_s" "s";
    layer "ktree.messages" "count";
    layer "ktree.depth" "count";
    layer "lbi.run_s" "s";
    layer "lbi.sweep_rounds" "count";
    layer "classify.census_s" "s";
    layer "vsa.run_s" "s";
    layer "vsa.rounds" "count";
    layer "vsa.assignments" "count";
    layer "vst.apply_s" "s";
    layer "vst.transfers" "count";
    layer "vst.skipped" "count";
    layer "vst.aborted" "count";
    layer "vst.deduped" "count";
    layer "topology.oracle_probes.aware" "count";
    layer "topology.oracle_probes.ignorant" "count";
    layer "topology.oracle_sources.aware" "count";
    layer "topology.oracle_sources.ignorant" "count";
    layer "chord.lookups" "count";
    layer "chord.hops" "count";
    layer "round.s.median" "s";
    layer "round.s.tail" "s";
    layer "round.s.samples" "count";
    layer ~better:Higher "round.useful_frac" "ratio";
    layer "invariants.check_s" "s";
    layer "faults.retries" "count";
    layer "faults.timeouts" "count";
    layer "faults.drops" "count";
    layer "faults.duplicates" "count";
    layer "faults.partition_drops" "count";
    layer "faults.crashes" "count";
    layer "faults.transfer_crashes" "count";
    layer "ktree.repairs" "count";
    layer "ktree.repair_messages" "count";
    layer "par.task_s" "s";
    layer "par.imbalance" "ratio";
    layer "gc.minor_collections" "count";
    layer "gc.major_collections" "count";
    layer "trace.overhead_frac" "ratio";
  ]

(* BENCHMARK.json's rule for names: a letter or a digit, then at most
   63 more letters, digits, '_', '.' and '-'. *)
let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

(* ...and for units: 1 to 16 letters, digits, '_', '/', '%', '.', '-'. *)
let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' ->
           true
         | _ -> false)
       s

let to_json () =
  let strings l = Json.Arr (List.map (fun s -> Json.Str s) l) in
  let metric m =
    Json.Obj
      ([
         ("name", Json.Str m.name);
         ("unit", Json.Str m.unit_);
         ( "better",
           Json.Str (match m.better with Lower -> "lower" | Higher -> "higher") );
       ]
      @ match m.bound with Some b -> [ ("bound", Json.Num b) ] | None -> [])
  in
  Json.Obj
    [
      ("command", strings command);
      ("paths", strings paths);
      ("run_seconds", Json.Num (float_of_int run_seconds));
      ( "workloads",
        Json.Arr
          (List.map
             (fun (name, why) ->
               Json.Obj [ ("name", Json.Str name); ("why", Json.Str why) ])
             workloads) );
      ("end_to_end", Json.Arr (List.map metric end_to_end));
      ("per_layer", Json.Arr (List.map metric per_layer));
    ]
