(* One run of the repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --spec

   --trace 0 runs the workload untraced for about S seconds (at least
   one iteration) and reports the end-to-end metrics.  --trace 1 runs
   it once untraced and once as a traced layer-by-layer replay, checks
   that the two agree, and reports the per-layer metrics.  --spec
   prints BENCHMARK.json.  The last line of standard output is the
   JSON result; the exit code is 0 only when every output check
   passed.  See BENCHMARK.md. *)

module W = Perfbench.Workloads
module Spec = Perfbench.Spec
module Stats = Perfbench.Stats
module Json = Perfbench.Json

(* Peak resident set of this process (Linux VmHWM), in MB. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith "perfbench: no VmHWM line in /proc/self/status"
        | Some line -> (
          match
            Scanf.sscanf_opt line "VmHWM: %f kB" (fun kb -> kb /. 1024.0)
          with
          | Some mb -> mb
          | None -> scan ())
      in
      scan ())

let failed_checks checks =
  List.length (List.filter (fun (_, ok) -> not ok) checks)

let report_iteration i (it : W.iteration) =
  Printf.printf
    "iteration %d: setup %.4f s, balance %.4f s, cpu %.4f s, alloc %.4f GB, \
     %d round(s)\n\
     %!"
    i it.setup_s it.balance_s it.cpu_s (it.alloc_bytes /. 1e9)
    (List.length it.round_s)

(* The outcome figures the JSON line does not carry. *)
let report_outcome (it : W.iteration) =
  Printf.printf
    "heavy_after %d, transfers %d, skipped %d, aborted %d, failed_frac %.6g, \
     par_eff %.4f at jobs %d\n"
    it.heavy_after it.transfers it.skipped it.aborted
    (Stats.failed_frac ~transfers:it.transfers ~skipped:it.skipped
       ~aborted:it.aborted ~failed_checks:(failed_checks it.checks))
    (Stats.par_eff ~task_s:it.task_s ~jobs:it.jobs ~wall_s:it.balance_s)
    it.jobs;
  Printf.printf "final_ratio %.6g, moved_frac %.6g\n" it.final_ratio
    it.moved_frac;
  Option.iter (Printf.printf "messages %d\n") it.messages;
  List.iter (fun (k, v) -> Printf.printf "%s %.6g\n" k v) it.notes;
  List.iter
    (fun (what, ok) -> if not ok then Printf.printf "CHECK FAILED: %s\n" what)
    it.checks

let metrics_json (spec : Spec.metric list) values =
  Json.Obj
    (List.map
       (fun (m : Spec.metric) ->
         match List.assoc_opt m.name values with
         | Some v ->
           (m.name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str m.unit_) ])
         | None -> failwith ("perfbench: no value for metric " ^ m.name))
       spec)

(* The result line: each output check is one attempted operation. *)
let result checks metrics =
  let failed = failed_checks checks in
  ( failed = 0,
    Json.Obj
      [
        ("correct", Json.Bool (failed = 0));
        ("attempted", Json.Num (float_of_int (List.length checks)));
        ("failed", Json.Num (float_of_int failed));
        ("metrics", metrics);
      ] )

(* The first iteration of a process grows the heap and runs markedly
   slower than the ones after it, so each run starts with one that is
   checked but not measured. *)
let warm_up (w : W.t) ~seed =
  let it = w.iterate ~layers:None ~fingerprints:false ~seed in
  report_iteration 0 it;
  it

(* Host speed.  On a shared host the same iteration's wall and CPU
   time move together by 30% or more from one minute to the next, and a
   median within one run cannot remove that, since all its iterations
   share the host's state.  So each measured iteration is bracketed by a
   fixed reference computation that uses no code of the program, and
   its times are scaled by [reference_nominal_s] over the mean of the
   two reference times around it: seconds at the reference's nominal
   host speed.  A change to the program moves the iteration and leaves
   the reference where it was. *)
let reference_nominal_s = 0.3

(* Hash-table, sort and list work on the standard library alone, with
   an allocation profile like the simulator's; about 0.3 s. *)
let reference () =
  let n = 200_000 in
  let st = Random.State.make [| 42 |] in
  let h = Hashtbl.create 1024 in
  for i = 0 to n - 1 do
    Hashtbl.replace h (Random.State.bits st) (float_of_int i)
  done;
  let a = Array.init n (fun _ -> Random.State.float st 1.0) in
  Array.sort Float.compare a;
  let pairs = Array.fold_left (fun acc x -> (x, Hashtbl.length h) :: acc) [] a in
  let total =
    List.fold_left (fun acc (x, _) -> acc +. x) 0.0 (List.sort compare pairs)
  in
  ignore (Sys.opaque_identity total)

(* Seconds the reference takes, on a heap cleared of earlier garbage and
   left cleared of its own. *)
let reference_s () =
  Gc.full_major ();
  let (), dt = W.timed reference in
  Gc.full_major ();
  dt

let untraced (w : W.t) ~seed ~seconds =
  let warm = warm_up w ~seed in
  let t0 = W.now () in
  let rec loop acc ref_before =
    let it, dt =
      W.timed (fun () -> w.iterate ~layers:None ~fingerprints:false ~seed)
    in
    let ref_after = reference_s () in
    let speed = 2.0 *. reference_nominal_s /. (ref_before +. ref_after) in
    report_iteration (List.length acc + 1) it;
    Printf.printf "  reference %.4f s and %.4f s: times scaled by %.4f\n%!"
      ref_before ref_after speed;
    let acc = (it, speed) :: acc in
    (* Another iteration only if it should still end within [seconds]. *)
    if W.now () -. t0 +. dt +. ref_after <= float_of_int seconds then
      loop acc ref_after
    else List.rev acc
  in
  let scaled = loop [] (reference_s ()) in
  let its = List.map fst scaled in
  let first = List.hd its in
  report_outcome first;
  let med f = Stats.median (List.map f its) in
  let med_scaled f = Stats.median (List.map (fun (it, k) -> k *. f it) scaled) in
  let values =
    [
      ("setup_s", med_scaled (fun (it : W.iteration) -> it.setup_s));
      ("balance_s", med_scaled (fun (it : W.iteration) -> it.balance_s));
      ("cpu_s", med_scaled (fun (it : W.iteration) -> it.cpu_s));
      ("alloc_gb", med (fun (it : W.iteration) -> it.alloc_bytes /. 1e9));
      ("peak_rss_mb", peak_rss_mb ());
      ("rounds", float_of_int (List.length first.round_s));
    ]
  in
  Printf.printf
    "unscaled medians: setup %.4f s, balance %.4f s, cpu %.4f s; scale %.4f\n"
    (med (fun (it : W.iteration) -> it.setup_s))
    (med (fun (it : W.iteration) -> it.balance_s))
    (med (fun (it : W.iteration) -> it.cpu_s))
    (Stats.median (List.map snd scaled));
  Printf.printf "end-to-end, medians of %d iteration(s):\n" (List.length its);
  List.iter (fun (k, v) -> Printf.printf "  %-14s %.6g\n" k v) values;
  result
    (List.concat_map (fun (it : W.iteration) -> it.checks) (warm :: its))
    (metrics_json Spec.end_to_end values)

let traced (w : W.t) ~seed =
  ignore (warm_up w ~seed);
  let base = w.iterate ~layers:None ~fingerprints:true ~seed in
  report_iteration 1 base;
  let lt = W.Layers.create () in
  let gc0 = Gc.quick_stat () in
  let tr = w.iterate ~layers:(Some lt) ~fingerprints:true ~seed in
  let gc1 = Gc.quick_stat () in
  report_iteration 2 tr;
  report_outcome tr;
  (* The fidelity gate: the replay's builds and rounds equal the
     untraced run's, field for field. *)
  let replay_ok = base.rounds = tr.rounds && base.fingerprints = tr.fingerprints in
  let tail = Stats.tail tr.round_s in
  let total (it : W.iteration) = it.setup_s +. it.balance_s in
  List.iter
    (fun (k, v) -> W.Layers.add lt k v)
    [
      ("round.s.median", Stats.median tr.round_s);
      ("round.s.tail", tail.value);
      ("round.s.samples", float_of_int tail.samples);
      ( "round.useful_frac",
        float_of_int tr.useful_rounds /. float_of_int tail.samples );
      ("par.task_s", List.fold_left ( +. ) 0.0 tr.task_s);
      ("par.imbalance", Stats.imbalance tr.task_s);
      ( "gc.minor_collections",
        float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections) );
      ( "gc.major_collections",
        float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) );
      ("trace.overhead_frac", (total tr /. total base) -. 1.0);
    ];
  List.iter
    (fun k ->
      if
        not
          (List.exists (fun (m : Spec.metric) -> String.equal m.name k) Spec.per_layer)
      then failwith ("perfbench: undeclared per-layer metric " ^ k))
    (W.Layers.keys lt);
  Printf.printf "replay %s the untraced run\n"
    (if replay_ok then "reproduces" else "DIVERGES FROM");
  Printf.printf "\n%-34s %14s  %-6s %s\n" "per-layer metric" "value" "unit"
    "share of traced set-up + balance";
  List.iter
    (fun (m : Spec.metric) ->
      let v = W.Layers.get lt m.name in
      let layer_time =
        String.ends_with ~suffix:"_s" m.name
        && not (String.equal m.name "par.task_s")
      in
      Printf.printf "%-34s %14.6g  %-6s %s\n" m.name v m.unit_
        (if layer_time then Printf.sprintf "%.1f%%" (100.0 *. v /. total tr)
         else ""))
    Spec.per_layer;
  Printf.printf "round.s.tail is %s of %d round(s)\n"
    (if tail.pct >= 100.0 then "the maximum"
     else Printf.sprintf "p%g" tail.pct)
    tail.samples;
  result
    (("traced replay reproduces the untraced run", replay_ok)
    :: (base.checks @ tr.checks))
    (metrics_json Spec.per_layer
       (List.map (fun (m : Spec.metric) -> (m.name, W.Layers.get lt m.name)) Spec.per_layer))

let usage =
  "main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
   main.exe --spec\n"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref Spec.run_seconds in
  let trace = ref 0 and spec = ref false in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME " ^ String.concat ", " (List.map fst Spec.workloads) );
      ("--seed", Arg.Set_int seed, "N seed the inputs are drawn from");
      ("--seconds", Arg.Set_int seconds, "S how long an untraced run measures");
      ( "--trace",
        Arg.Set_int trace,
        "0|1 end-to-end metrics, or the traced per-layer replay" );
      ("--spec", Arg.Set spec, " print BENCHMARK.json");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !spec then print_string (Json.pretty (Spec.to_json ()))
  else
    match W.find !workload with
    | Some w when !seconds >= 1 && (!trace = 0 || !trace = 1) ->
      Printf.printf "perfbench %s, seed %d, %s\n%!" w.name !seed
        (if !trace = 1 then "traced"
         else Printf.sprintf "%d s" !seconds);
      let ok, json =
        if !trace = 1 then traced w ~seed:!seed
        else untraced w ~seed:!seed ~seconds:!seconds
      in
      print_endline (Json.inline json);
      exit (if ok then 0 else 1)
    | Some _ | None ->
      prerr_string ("perfbench: bad arguments\n" ^ usage);
      exit 2
