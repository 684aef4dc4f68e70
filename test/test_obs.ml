(* lib/obs unit tests: trace event recording (span stack, point
   attribution, clocks), the JSONL sink and its inverse, digest
   stability, the metrics registry, and the offline trace reader
   (Spantree: span forest, whole-trace tables, hop histograms). *)

module Trace = P2plb_obs.Trace
module Registry = P2plb_obs.Registry
module Obs = P2plb_obs.Obs
module Spantree = P2plb_obs.Spantree
module Timeseries = P2plb_obs.Timeseries
module Histogram = P2plb_metrics.Histogram

let check = Alcotest.check
let feq = Alcotest.float 1e-12
let feq9 = Alcotest.float 1e-9

let str_contains hay sub =
  let n = String.length hay and m = String.length sub in
  let rec go i =
    i + m <= n && (String.equal (String.sub hay i m) sub || go (i + 1))
  in
  go 0

(* ---- event equality helpers -------------------------------------------- *)

let value_eq a b =
  match (a, b) with
  | Trace.Bool x, Trace.Bool y -> Bool.equal x y
  | Trace.Int x, Trace.Int y -> Int.equal x y
  | Trace.Float x, Trace.Float y -> Float.equal x y
  | Trace.Str x, Trace.Str y -> String.equal x y
  | _ -> false

let kind_eq a b =
  match (a, b) with
  | Trace.Point, Trace.Point | Trace.Begin, Trace.Begin | Trace.End, Trace.End
    ->
    true
  | _ -> false

let ev_eq (a : Trace.ev) (b : Trace.ev) =
  Float.equal a.Trace.time b.Trace.time
  && Int.equal a.Trace.seq b.Trace.seq
  && kind_eq a.Trace.kind b.Trace.kind
  && String.equal a.Trace.name b.Trace.name
  && Int.equal a.Trace.span b.Trace.span
  && List.length a.Trace.attrs = List.length b.Trace.attrs
  && List.for_all2
       (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && value_eq v1 v2)
       a.Trace.attrs b.Trace.attrs

(* ---- trace recording ---------------------------------------------------- *)

let test_span_stack_attribution () =
  let t = Trace.create () in
  Trace.point t "orphan";
  let outer = Trace.begin_span t "phase/outer" in
  Trace.point t "in_outer";
  let inner = Trace.begin_span t "phase/inner" in
  Trace.point t "in_inner";
  Trace.end_span t inner;
  Trace.point t "back_in_outer";
  Trace.end_span t outer ~attrs:[ ("n", Trace.Int 2) ];
  let evs = Trace.events t in
  check Alcotest.int "eight events" 8 (List.length evs);
  check Alcotest.int "n_events agrees" 8 (Trace.n_events t);
  List.iteri
    (fun i ev -> check Alcotest.int "seq gap-free" i ev.Trace.seq)
    evs;
  let span_of name =
    (List.find (fun ev -> String.equal ev.Trace.name name) evs).Trace.span
  in
  check Alcotest.int "point outside any span" (-1) (span_of "orphan");
  check Alcotest.int "outer span id" 0 (span_of "phase/outer");
  check Alcotest.int "attributed to outer" 0 (span_of "in_outer");
  check Alcotest.int "attributed to inner" 1 (span_of "in_inner");
  check Alcotest.int "inner close pops the stack" 0 (span_of "back_in_outer")

let test_with_span_closes_on_raise () =
  let t = Trace.create () in
  (try Trace.with_span t "phase/boom" (fun () -> failwith "boom")
   with Failure _ -> ());
  Trace.point t "after";
  let evs = Trace.events t in
  check Alcotest.int "begin + end + point" 3 (List.length evs);
  let last = List.nth evs 2 in
  check Alcotest.int "span closed despite the raise" (-1) last.Trace.span

let test_clocks () =
  let t = Trace.create () in
  check feq "manual clock starts at 0" 0.0 (Trace.now t);
  Trace.set_time t 2.5;
  check feq "set_time advances" 2.5 (Trace.now t);
  Trace.point t "p1";
  let cur = ref 7.0 in
  Trace.set_clock t (fun () -> !cur);
  check feq "installed clock wins" 7.0 (Trace.now t);
  cur := 8.25;
  Trace.point t "p2";
  Trace.set_time t 1.0;
  check feq "set_time uninstalls the clock" 1.0 (Trace.now t);
  let times = List.map (fun ev -> ev.Trace.time) (Trace.events t) in
  check Alcotest.(list (float 1e-12)) "stamps" [ 2.5; 8.25 ] times

(* ---- JSONL sink --------------------------------------------------------- *)

let build_mixed_trace () =
  let t = Trace.create () in
  Trace.set_time t 0.2;
  let sp =
    Trace.begin_span t "phase/vst" ~attrs:[ ("mode", Trace.Str "aware") ]
  in
  Trace.point t "vst/transfer"
    ~attrs:
      [
        ("hops", Trace.Int 3);
        ("load", Trace.Float 0.1);
        ("ok", Trace.Bool true);
        ("note", Trace.Str "quote\" slash\\ nl\n tab\t");
      ];
  Trace.point t "vst/skip"
    ~attrs:[ ("cause", Trace.Str "vs_gone"); ("w", Trace.Float (1.0 /. 3.0)) ];
  Trace.set_time t 0.7;
  Trace.end_span t sp ~attrs:[ ("transfers", Trace.Int 1) ];
  t

let test_jsonl_round_trip () =
  let t = build_mixed_trace () in
  match Trace.parse_jsonl (Trace.to_jsonl t) with
  | Error e -> Alcotest.fail ("parse_jsonl failed: " ^ e)
  | Ok evs ->
    let orig = Trace.events t in
    check Alcotest.int "same count" (List.length orig) (List.length evs);
    List.iter2
      (fun a b ->
        check Alcotest.bool
          (Printf.sprintf "event %d round-trips" a.Trace.seq)
          true (ev_eq a b))
      orig evs

let test_parse_rejects_garbage () =
  (match Trace.parse_jsonl "not json at all" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  match Trace.parse_jsonl "" with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "empty input should give no events"
  | Error e -> Alcotest.fail ("empty input rejected: " ^ e)

let test_digest_stability () =
  let d1 = Trace.digest (build_mixed_trace ()) in
  let d2 = Trace.digest (build_mixed_trace ()) in
  check Alcotest.string "same build, same digest" d1 d2;
  let t = build_mixed_trace () in
  Trace.point t "extra";
  check Alcotest.bool "extra event changes the digest" true
    (not (String.equal d1 (Trace.digest t)))

let test_float_to_string_round_trips () =
  List.iter
    (fun x ->
      let s = Trace.float_to_string x in
      check feq (Printf.sprintf "%s round-trips" s) x (float_of_string s))
    [ 0.1; 1.0 /. 3.0; -1e-3; 6.02e23; 0.0; 42.0 ]

(* ---- schema v2: parent ids & span forest -------------------------------- *)

(* one round span over two phases — the multiround controller's shape *)
let build_v2_trace () =
  let t = Trace.create () in
  Trace.set_time t 0.0;
  let round = Trace.begin_span t "round" ~attrs:[ ("index", Trace.Int 0) ] in
  Trace.set_time t 0.2;
  let kt = Trace.begin_span t "phase/kt" in
  Trace.set_time t 0.4;
  Trace.end_span t kt;
  let vst = Trace.begin_span t "phase/vst" in
  Trace.point t "vst/transfer" ~attrs:[ ("hops", Trace.Int 1) ];
  Trace.set_time t 1.0;
  Trace.end_span t vst;
  Trace.end_span t round ~attrs:[ ("transfers", Trace.Int 1) ];
  t

let test_v2_emit_parse_reemit () =
  let t = build_v2_trace () in
  let s = Trace.to_jsonl t in
  check Alcotest.bool "v2 header on the first line" true
    (String.starts_with ~prefix:"{\"v\":2}\n" s);
  match Trace.parse_jsonl s with
  | Error e -> Alcotest.fail ("parse_jsonl failed: " ^ e)
  | Ok evs ->
    check Alcotest.string "emit -> parse -> re-emit is byte-identical" s
      (Trace.jsonl_of_events evs);
    let parent_of name =
      (List.find
         (fun ev ->
           String.equal ev.Trace.name name && kind_eq ev.Trace.kind Trace.Begin)
         evs)
        .Trace.parent
    in
    check Alcotest.int "round is a root" (-1) (parent_of "round");
    check Alcotest.int "phase/kt nests under round" 0 (parent_of "phase/kt");
    check Alcotest.int "phase/vst nests under round" 0 (parent_of "phase/vst")

let test_v2_header_and_parent () =
  (* every trace speaks v2: the header opens it, and exactly the Begin
     events carry a parent id *)
  let s = Trace.to_jsonl (build_mixed_trace ()) in
  match String.split_on_char '\n' s with
  | header :: begin_ :: rest ->
    check Alcotest.string "header line" "{\"v\":2}" header;
    check Alcotest.bool "begin carries its parent" true
      (str_contains begin_ "\"span\":0,\"parent\":-1,");
    List.iter
      (fun line ->
        check Alcotest.bool
          (Printf.sprintf "no parent on %S" line)
          false
          (str_contains line "\"parent\":"))
      rest
  | _ -> Alcotest.fail "trace has fewer than two lines"

let test_spantree_forest () =
  let t = build_v2_trace () in
  match Spantree.of_events (Trace.events t) with
  | Error e -> Alcotest.fail ("of_events failed: " ^ e)
  | Ok { Spantree.roots; _ } ->
    check Alcotest.int "one root" 1 (List.length roots);
    check Alcotest.int "three spans" 3 (Spantree.n_spans roots);
    check Alcotest.int "depth two" 2 (Spantree.depth roots);
    let root = List.hd roots in
    check Alcotest.string "root is the round" "round" root.Spantree.nd_name;
    check Alcotest.int "two phase children" 2
      (List.length root.Spantree.nd_children);
    check feq9 "round extent" 1.0 (Spantree.extent root);
    check feq9 "round self-time (gap before phase/kt)" 0.2
      (Spantree.self_time root);
    (match Spantree.critical_path root with
    | [ a; b ] ->
      check Alcotest.string "path root" "round" a.Spantree.nd_name;
      check Alcotest.string "path follows the longest phase" "phase/vst"
        b.Spantree.nd_name;
      check Alcotest.int "the vst point rode along" 1 b.Spantree.nd_points
    | p ->
      Alcotest.fail
        (Printf.sprintf "critical path has %d nodes" (List.length p)));
    (match Spantree.rounds roots with
    | [ r ] ->
      check Alcotest.int "round index from the attr" 0 r.Spantree.r_index;
      check feq9 "round extent via grouping" 1.0 (Spantree.round_extent r)
    | rs -> Alcotest.fail (Printf.sprintf "%d rounds" (List.length rs)));
    let rows = Spantree.phase_rows roots in
    check
      Alcotest.(list (pair string int))
      "phase rows sorted by name, one span each"
      [ ("phase/kt", 1); ("phase/vst", 1); ("round", 1) ]
      (List.map (fun p -> (p.Spantree.p_name, p.Spantree.p_count)) rows)

let test_spantree_jsonl_deterministic () =
  let render_once () =
    let t = build_v2_trace () in
    match Spantree.of_events (Trace.events t) with
    | Error e -> Alcotest.fail e
    | Ok t -> Spantree.to_jsonl t
  in
  let a = render_once () in
  check Alcotest.string "byte-identical across builds" a (render_once ());
  check Alcotest.bool "carries the critical path" true
    (str_contains a "\"crit\":")

let test_spantree_rejects_unbalanced () =
  let t = Trace.create () in
  ignore (Trace.begin_span t "phase/open");
  match Spantree.of_events (Trace.events t) with
  | Ok _ -> Alcotest.fail "unbalanced trace accepted"
  | Error e ->
    check Alcotest.bool
      (Printf.sprintf "diagnostic says unbalanced (%S)" e)
      true
      (str_contains e "unbalanced")

let test_spantree_rejects_orphan_parent () =
  let mk ~seq ~kind ~span ~parent time =
    {
      Trace.time;
      seq;
      kind;
      name = "a";
      span;
      parent;
      attrs = [];
    }
  in
  let evs =
    [
      (* claims to nest under span 7, which was never opened *)
      mk ~seq:0 ~kind:Trace.Begin ~span:0 ~parent:7 0.0;
      mk ~seq:1 ~kind:Trace.End ~span:0 ~parent:(-1) 1.0;
    ]
  in
  match Spantree.of_events evs with
  | Ok _ -> Alcotest.fail "orphan parent accepted"
  | Error e ->
    check Alcotest.bool
      (Printf.sprintf "diagnostic says orphan (%S)" e)
      true (str_contains e "orphan")

(* ---- timeseries --------------------------------------------------------- *)

let build_series () =
  let ts = Timeseries.create () in
  ignore
    (Timeseries.record ts ~round:0 ~time:1.0 ~epsilon:0.05
       ~unit_loads:[| 3.0; 1.0 |] ~fair:2.0 ~moved:1.0 ~total_load:4.0);
  ignore
    (Timeseries.record ts ~round:1 ~time:2.0 ~epsilon:0.05
       ~unit_loads:[| 2.0; 2.0 |] ~fair:2.0 ~moved:1.0 ~total_load:4.0);
  ts

let test_timeseries_record () =
  let ts = build_series () in
  match Timeseries.samples ts with
  | [ s0; s1 ] ->
    check feq "max load" 3.0 s0.Timeseries.ts_max;
    check feq "ratio = max / fair" 1.5 s0.Timeseries.ts_ratio;
    check feq9 "gini of [3;1]" 0.25 s0.Timeseries.ts_gini;
    check feq "half the nodes overloaded" 0.5 s0.Timeseries.ts_over;
    check feq "cumulative moved accumulates" 2.0 s1.Timeseries.ts_cum;
    check feq "balanced round has ratio 1" 1.0 s1.Timeseries.ts_ratio;
    check feq "balanced round has gini 0" 0.0 s1.Timeseries.ts_gini
  | ss -> Alcotest.fail (Printf.sprintf "%d samples" (List.length ss))

let test_timeseries_convergence () =
  let ts = build_series () in
  (match Timeseries.convergence (Timeseries.samples ts) with
  | Timeseries.Converged { c_round; c_moved_frac; _ } ->
    check Alcotest.int "first round within 1+eps" 1 c_round;
    check feq9 "moved fraction" 0.5 c_moved_frac
  | _ -> Alcotest.fail "expected Converged");
  (match Timeseries.convergence [] with
  | Timeseries.No_data -> ()
  | _ -> Alcotest.fail "expected No_data");
  let bad = Timeseries.create () in
  ignore
    (Timeseries.record bad ~round:0 ~time:1.0 ~epsilon:0.05
       ~unit_loads:[| 4.0; 0.0 |] ~fair:2.0 ~moved:0.0 ~total_load:4.0);
  match Timeseries.convergence (Timeseries.samples bad) with
  | Timeseries.Not_converged { n_rounds; n_final_ratio; _ } ->
    check Alcotest.int "rounds seen" 1 n_rounds;
    check feq "final ratio reported" 2.0 n_final_ratio
  | _ -> Alcotest.fail "expected Not_converged"

let test_timeseries_jsonl_round_trip () =
  let ts = build_series () in
  check Alcotest.string "digest deterministic across builds"
    (Timeseries.digest ts)
    (Timeseries.digest (build_series ()));
  let s = Timeseries.to_jsonl ts in
  match Timeseries.parse_jsonl s with
  | Error e -> Alcotest.fail ("parse_jsonl failed: " ^ e)
  | Ok samples ->
    check Alcotest.int "both samples back" 2 (List.length samples);
    check Alcotest.string "emit -> parse -> re-emit is byte-identical" s
      (Timeseries.jsonl_of_samples samples)

(* ---- registry ----------------------------------------------------------- *)

let test_registry_counters_gauges () =
  let r = Registry.create () in
  let c = Registry.counter r "fault/drop" in
  Registry.add c 2;
  Registry.add (Registry.counter r "fault/drop") 3;
  check Alcotest.int "get-or-create shares the series" 5 (Registry.count c);
  check
    Alcotest.(option int)
    "find_counter" (Some 5)
    (Registry.find_counter r "fault/drop");
  check Alcotest.(option int) "absent" None (Registry.find_counter r "nope");
  let g = Registry.gauge r "engine/peak_pending" in
  Registry.set g 2.0;
  Registry.accum g 1.5;
  check feq "set then accum" 3.5 (Registry.value g);
  Registry.peak g 1.0;
  check feq "peak keeps the max" 3.5 (Registry.value g);
  Registry.peak g 9.0;
  check feq "peak raises" 9.0 (Registry.value g);
  let h = Registry.histogram r "vst/hop_cost" in
  Histogram.add h ~bin:2 ~weight:1.5;
  match Registry.find_histogram r "vst/hop_cost" with
  | None -> Alcotest.fail "histogram lost"
  | Some h' -> check feq "shared histogram" 1.5 (Histogram.weight_at h' 2)

let test_registry_histogram_percentile_total () =
  (* percentile_bin is total (see registry.mli): report code may hit
     registry histograms that never received a sample *)
  let r = Registry.create () in
  let h = Registry.histogram r "vst/hop_cost" in
  check Alcotest.int "empty at p=50" (-1) (Histogram.percentile_bin h 50.0);
  check Alcotest.int "empty at p=0" (-1) (Histogram.percentile_bin h 0.0);
  check Alcotest.int "empty at p=100" (-1) (Histogram.percentile_bin h 100.0);
  Histogram.add h ~bin:2 ~weight:1.0;
  Histogram.add h ~bin:5 ~weight:3.0;
  check Alcotest.int "p=0 is the first non-empty bin" 2
    (Histogram.percentile_bin h 0.0);
  check Alcotest.int "p=100 is the last" 5 (Histogram.percentile_bin h 100.0);
  check Alcotest.int "overshoot clamps to 100" 5
    (Histogram.percentile_bin h 250.0);
  check Alcotest.int "undershoot clamps to 0" 2
    (Histogram.percentile_bin h (-1.0));
  check Alcotest.int "NaN reads as 100" 5
    (Histogram.percentile_bin h Float.nan)

let test_registry_dump_sorted_and_stable () =
  let build flip =
    let r = Registry.create () in
    let fill_a () = Registry.add (Registry.counter r "z/c") 3 in
    let fill_b () = Registry.set (Registry.gauge r "a/g") 1.5 in
    if flip then (fill_a (); fill_b ()) else (fill_b (); fill_a ());
    Histogram.add (Registry.histogram r "m/h") ~bin:4 ~weight:2.0;
    r
  in
  let r1 = build false and r2 = build true in
  check Alcotest.string "creation order does not leak into the dump"
    (Registry.digest r1) (Registry.digest r2);
  let names = List.map fst (Registry.rows r1) in
  check
    Alcotest.(list string)
    "rows sorted by name" (List.sort String.compare names) names

(* ---- whole-trace tables and hop histograms ----------------------------- *)

let synthetic_vst_trace () =
  let t = Trace.create () in
  Trace.set_time t 0.0;
  let sp =
    Trace.begin_span t "phase/vst" ~attrs:[ ("mode", Trace.Str "aware") ]
  in
  Trace.point t "vst/transfer"
    ~attrs:[ ("hops", Trace.Int 2); ("load", Trace.Float 1.5) ];
  Trace.point t "vst/transfer"
    ~attrs:[ ("hops", Trace.Int 2); ("load", Trace.Float 0.5) ];
  Trace.set_time t 1.0;
  Trace.end_span t sp;
  let sp =
    Trace.begin_span t "phase/vst" ~attrs:[ ("mode", Trace.Str "ignorant") ]
  in
  Trace.point t "vst/transfer"
    ~attrs:[ ("hops", Trace.Int 5); ("load", Trace.Float 2.0) ];
  Trace.set_time t 2.0;
  Trace.end_span t sp;
  Trace.events t

let read evs =
  match Spantree.of_events evs with
  | Ok t -> t
  | Error e -> Alcotest.fail ("of_events failed: " ^ e)

let test_spantree_tables () =
  let t = read (synthetic_vst_trace ()) in
  (match Spantree.phase_rows t.Spantree.roots with
  | [ p ] ->
    check Alcotest.string "span name" "phase/vst" p.Spantree.p_name;
    check Alcotest.int "two vst phases" 2 p.Spantree.p_count;
    check feq "summed extent" 2.0 p.Spantree.p_time
  | rows ->
    Alcotest.fail (Printf.sprintf "expected one span row, got %d"
                     (List.length rows)));
  check
    Alcotest.(list (pair string int))
    "point counts"
    [ ("vst/transfer", 3) ]
    t.Spantree.point_counts

let test_spantree_hop_histograms () =
  let hists = (read (synthetic_vst_trace ())).Spantree.hop_histograms in
  check
    Alcotest.(list string)
    "one histogram per mode, sorted" [ "aware"; "ignorant" ]
    (List.map fst hists);
  let aware = List.assoc "aware" hists
  and ignorant = List.assoc "ignorant" hists in
  check feq "aware load at 2 hops" 2.0 (Histogram.weight_at aware 2);
  check feq "aware total" 2.0 (Histogram.total_weight aware);
  check feq "ignorant load at 5 hops" 2.0 (Histogram.weight_at ignorant 5);
  check Alcotest.int "ignorant max bin" 5 (Histogram.max_bin ignorant)

let test_spantree_render_mentions_everything () =
  let out = Spantree.render (read (synthetic_vst_trace ())) in
  List.iter
    (fun sub ->
      check Alcotest.bool (Printf.sprintf "render mentions %S" sub) true
        (str_contains out sub))
    [ "phase/vst"; "vst/transfer"; "aware"; "ignorant" ]

(* Three Multiround-shaped rounds: a round span keyed by its index, a
   KT build reporting its depth and size, a classify census of that round's
   heavy, light and neutral nodes, and a VST phase counting
   transfers. *)
let three_round_trace () =
  let t = Trace.create () in
  for i = 0 to 2 do
    Trace.set_time t (float_of_int i);
    let round = Trace.begin_span t "round" ~attrs:[ ("index", Trace.Int i) ] in
    let kt = Trace.begin_span t "phase/kt_build" in
    Trace.set_time t (float_of_int i +. 0.5);
    Trace.end_span t kt
      ~attrs:
        [
          ("depth", Trace.Int (30 + i));
          ("messages", Trace.Int 10);
          ("nodes", Trace.Int (20 - i));
        ];
    let cl = Trace.begin_span t "phase/classify" in
    Trace.end_span t cl
      ~attrs:
        [
          ("heavy", Trace.Int (4 - i));
          ("light", Trace.Int (2 + i));
          ("neutral", Trace.Int (1 + (i mod 2)));
        ];
    let vst = Trace.begin_span t "phase/vst" in
    Trace.point t "vst/transfer"
      ~attrs:[ ("hops", Trace.Int i); ("load", Trace.Float 1.0) ];
    Trace.set_time t (float_of_int i +. 1.0);
    Trace.end_span t vst ~attrs:[ ("transfers", Trace.Int 1) ];
    Trace.end_span t round ~attrs:[ ("transfers", Trace.Int 1) ]
  done;
  Trace.events t

let test_spantree_totals_fold_attrs () =
  let t = read (three_round_trace ()) in
  let totals name =
    (List.find
       (fun p -> String.equal p.Spantree.p_name name)
       (Spantree.phase_rows t.Spantree.roots))
      .Spantree.p_totals
  in
  check
    Alcotest.(list (pair string feq))
    "the round's index is its key, not a total"
    [ ("transfers", 3.0) ]
    (totals "round");
  check
    Alcotest.(list (pair string feq))
    "depth and size are the largest build's, messages are summed"
    [ ("depth", 32.0); ("messages", 30.0); ("nodes", 20.0) ]
    (totals "phase/kt_build");
  check
    Alcotest.(list (pair string feq))
    "a census is the largest round's, not node-rounds"
    [ ("heavy", 4.0); ("light", 4.0); ("neutral", 2.0) ]
    (totals "phase/classify");
  let out = Spantree.render t in
  check Alcotest.bool "whole-trace table shows the max depth" true
    (str_contains out "depth=32 messages=30 nodes=20");
  check Alcotest.bool "whole-trace table shows the max census" true
    (str_contains out "heavy=4 light=4 neutral=2");
  check Alcotest.bool "no summed index" false (str_contains out "index=")

let test_spantree_jsonl_points_and_hops () =
  let out = Spantree.to_jsonl (read (three_round_trace ())) in
  List.iter
    (fun line ->
      check Alcotest.bool (Printf.sprintf "jsonl has %s" line) true
        (str_contains out (line ^ "\n")))
    [
      "{\"k\":\"point\",\"name\":\"vst/transfer\",\"count\":3}";
      "{\"k\":\"hops\",\"mode\":\"all\",\"bin\":0,\"load\":1}";
      "{\"k\":\"hops\",\"mode\":\"all\",\"bin\":2,\"load\":1}";
    ]

(* ---- bundle ------------------------------------------------------------- *)

let test_obs_bundle () =
  let o = Obs.create () in
  Trace.point (Obs.trace o) "x";
  Registry.add (Registry.counter (Obs.metrics o) "c") 1;
  check Alcotest.int "trace reachable" 1 (Trace.n_events (Obs.trace o));
  check
    Alcotest.(option int)
    "registry reachable" (Some 1)
    (Registry.find_counter (Obs.metrics o) "c")

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "span stack attribution" `Quick
            test_span_stack_attribution;
          Alcotest.test_case "with_span on raise" `Quick
            test_with_span_closes_on_raise;
          Alcotest.test_case "clocks" `Quick test_clocks;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "round trip" `Quick test_jsonl_round_trip;
          Alcotest.test_case "garbage rejected" `Quick
            test_parse_rejects_garbage;
          Alcotest.test_case "digest stability" `Quick test_digest_stability;
          Alcotest.test_case "float spelling round-trips" `Quick
            test_float_to_string_round_trips;
        ] );
      ( "schema-v2",
        [
          Alcotest.test_case "emit/parse/re-emit byte-identical" `Quick
            test_v2_emit_parse_reemit;
          Alcotest.test_case "header and parent on every trace" `Quick
            test_v2_header_and_parent;
        ] );
      ( "spantree",
        [
          Alcotest.test_case "forest, critical path, rounds" `Quick
            test_spantree_forest;
          Alcotest.test_case "jsonl report deterministic" `Quick
            test_spantree_jsonl_deterministic;
          Alcotest.test_case "unbalanced rejected" `Quick
            test_spantree_rejects_unbalanced;
          Alcotest.test_case "orphan parent rejected" `Quick
            test_spantree_rejects_orphan_parent;
          Alcotest.test_case "span and point tables" `Quick
            test_spantree_tables;
          Alcotest.test_case "hop histograms by mode" `Quick
            test_spantree_hop_histograms;
          Alcotest.test_case "render" `Quick
            test_spantree_render_mentions_everything;
          Alcotest.test_case "totals drop index, max depth"
            `Quick test_spantree_totals_fold_attrs;
          Alcotest.test_case "jsonl point and hops lines" `Quick
            test_spantree_jsonl_points_and_hops;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "record derives statistics" `Quick
            test_timeseries_record;
          Alcotest.test_case "convergence detector" `Quick
            test_timeseries_convergence;
          Alcotest.test_case "jsonl round trip & digest" `Quick
            test_timeseries_jsonl_round_trip;
        ] );
      ( "registry",
        [
          Alcotest.test_case "counters and gauges" `Quick
            test_registry_counters_gauges;
          Alcotest.test_case "histogram percentile is total" `Quick
            test_registry_histogram_percentile_total;
          Alcotest.test_case "dump sorted and stable" `Quick
            test_registry_dump_sorted_and_stable;
        ] );
      ("bundle", [ Alcotest.test_case "obs bundle" `Quick test_obs_bundle ]);
    ]
