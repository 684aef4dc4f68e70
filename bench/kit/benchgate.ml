(* Machine-readable bench records (BENCH_<rev>.json) and the
   regression gate that compares two of them.

   The file is JSONL built on the trace sink's flat-object subset:
   one "meta" line, one "experiment" line per observed experiment, and
   one "bench" line per bechamel micro-benchmark.  Simulation-derived
   fields (rounds, transfers, messages, convergence round, final
   ratio, series digest) are deterministic for a given seed — the
   @bench-smoke alias checks they are byte-identical across two runs —
   while cpu/alloc figures are host costs that never feed back into a
   simulation (DESIGN.md §11). *)

module Obs = P2plb_obs.Obs
module Registry = P2plb_obs.Registry
module Timeseries = P2plb_obs.Timeseries
module Trace = P2plb_obs.Trace

let schema_version = 1

type sim = {
  sm_rounds : int;
  sm_conv_round : int; (* -1 = did not converge *)
  sm_final_ratio : float;
  sm_moved_frac : float;
  sm_transfers : int;
  sm_messages : int;
  sm_series_digest : string;
}

type experiment = {
  e_name : string;
  e_cpu_s : float;
  e_alloc_bytes : float;
  e_sim : sim;
}

type bench = { b_name : string; b_ns : float }

type meta = {
  m_rev : string;
  m_nodes : int;
  m_graphs : int;
  m_seed : int;
  m_smoke : bool;
  m_jobs : int;
  m_wall_s : float;
  m_speedup : float;
}

type file = {
  f_meta : meta;
  f_experiments : experiment list;
  f_benches : bench list;
}

(* ---- building a record -------------------------------------------------- *)

let sim_of_obs obs =
  let metrics = Obs.metrics obs in
  let series = Obs.series obs in
  let samples = Timeseries.samples series in
  let counter name =
    match Registry.find_counter metrics name with Some n -> n | None -> 0
  in
  let conv_round, final_ratio, moved_frac =
    match Timeseries.convergence samples with
    | Timeseries.No_data -> (-1, 0.0, 0.0)
    | Timeseries.Converged { c_round; c_ratio; c_moved_frac } ->
      (c_round, c_ratio, c_moved_frac)
    | Timeseries.Not_converged { n_final_ratio; _ } -> (
      ( -1,
        n_final_ratio,
        match List.rev samples with
        | last :: _ when Float.compare last.Timeseries.ts_load 0.0 > 0 ->
          last.Timeseries.ts_cum /. last.Timeseries.ts_load
        | _ -> 0.0 ))
  in
  {
    sm_rounds = List.length samples;
    sm_conv_round = conv_round;
    sm_final_ratio = final_ratio;
    sm_moved_frac = moved_frac;
    sm_transfers = counter "vst/transfers";
    sm_messages = counter "round/messages";
    sm_series_digest = Timeseries.digest series;
  }

let observe name obs run =
  let a0 = Gc.allocated_bytes () in
  (* p2plint: allow-impure — bench harness CPU timing, confined to BENCH_<rev>.json *)
  let t0 = Sys.time () in
  run ();
  (* p2plint: allow-impure — bench harness CPU timing, confined to BENCH_<rev>.json *)
  let cpu = Sys.time () -. t0 in
  let alloc = Gc.allocated_bytes () -. a0 in
  { e_name = name; e_cpu_s = cpu; e_alloc_bytes = alloc; e_sim = sim_of_obs obs }

let record ~rev ~nodes ~graphs ~seed ~smoke ~jobs ~wall_s experiments benches =
  let cpu_total =
    List.fold_left (fun acc e -> acc +. e.e_cpu_s) 0.0 experiments
  in
  let speedup =
    if Float.compare wall_s 1e-9 > 0 then cpu_total /. wall_s else 1.0
  in
  {
    f_meta =
      {
        m_rev = rev;
        m_nodes = nodes;
        m_graphs = graphs;
        m_seed = seed;
        m_smoke = smoke;
        m_jobs = jobs;
        m_wall_s = wall_s;
        m_speedup = speedup;
      };
    f_experiments = experiments;
    f_benches = benches;
  }

(* ---- encoding ---------------------------------------------------------- *)

let fts = Trace.float_to_string

let to_json f =
  let buf = Buffer.create 1024 in
  let m = f.f_meta in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"k\":\"meta\",\"schema\":%d,\"rev\":\"%s\",\"nodes\":%d,\"graphs\":%d,\"seed\":%d,\"smoke\":%b,\"jobs\":%d,\"wall_s\":%s,\"speedup\":%s}\n"
       schema_version m.m_rev m.m_nodes m.m_graphs m.m_seed m.m_smoke m.m_jobs
       (fts m.m_wall_s) (fts m.m_speedup));
  List.iter
    (fun e ->
      let s = e.e_sim in
      Buffer.add_string buf
        (Printf.sprintf
           "{\"k\":\"experiment\",\"name\":\"%s\",\"cpu_s\":%s,\"alloc_bytes\":%s,\"rounds\":%d,\"conv_round\":%d,\"final_ratio\":%s,\"moved_frac\":%s,\"transfers\":%d,\"messages\":%d,\"series_digest\":\"%s\"}\n"
           e.e_name (fts e.e_cpu_s) (fts e.e_alloc_bytes) s.sm_rounds
           s.sm_conv_round (fts s.sm_final_ratio) (fts s.sm_moved_frac)
           s.sm_transfers s.sm_messages s.sm_series_digest))
    f.f_experiments;
  List.iter
    (fun b ->
      Buffer.add_string buf
        (Printf.sprintf "{\"k\":\"bench\",\"name\":\"%s\",\"ns\":%s}\n" b.b_name
           (fts b.b_ns)))
    f.f_benches;
  Buffer.contents buf

let write f ~path =
  Out_channel.with_open_bin path (fun oc -> output_string oc (to_json f))

(* ---- decoding ---------------------------------------------------------- *)

let ( let* ) = Result.bind

(* [k]'s value in [fields], through [conv]; [kind] names what [conv]
   accepts. *)
let field kind conv fields k =
  match List.assoc_opt k fields with
  | None -> Error (Printf.sprintf "missing field %S" k)
  | Some (Trace.Nested _) -> Error (Printf.sprintf "field %S is nested" k)
  | Some (Trace.Scalar v) -> (
    match conv v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "field %S is not a %s" k kind))

let num =
  field "number" (function
    | Trace.Int i -> Some (float_of_int i)
    | Trace.Float f -> Some f
    | _ -> None)

let int_field fields k = Result.map int_of_float (num fields k)
let str = field "string" (function Trace.Str s -> Some s | _ -> None)
let bool_field = field "boolean" (function Trace.Bool b -> Some b | _ -> None)

let meta_of_fields fields =
  let* schema = int_field fields "schema" in
  let* () =
    if schema = schema_version then Ok ()
    else
      Error
        (Printf.sprintf "schema version %d (this tool speaks %d)" schema
           schema_version)
  in
  let* m_rev = str fields "rev" in
  let* m_nodes = int_field fields "nodes" in
  let* m_graphs = int_field fields "graphs" in
  let* m_seed = int_field fields "seed" in
  let* m_smoke = bool_field fields "smoke" in
  let* m_jobs = int_field fields "jobs" in
  let* m_wall_s = num fields "wall_s" in
  let* m_speedup = num fields "speedup" in
  Ok { m_rev; m_nodes; m_graphs; m_seed; m_smoke; m_jobs; m_wall_s; m_speedup }

let experiment_of_fields fields =
  let* e_name = str fields "name" in
  let* e_cpu_s = num fields "cpu_s" in
  let* e_alloc_bytes = num fields "alloc_bytes" in
  let* sm_rounds = int_field fields "rounds" in
  let* sm_conv_round = int_field fields "conv_round" in
  let* sm_final_ratio = num fields "final_ratio" in
  let* sm_moved_frac = num fields "moved_frac" in
  let* sm_transfers = int_field fields "transfers" in
  let* sm_messages = int_field fields "messages" in
  let* sm_series_digest = str fields "series_digest" in
  Ok
    {
      e_name;
      e_cpu_s;
      e_alloc_bytes;
      e_sim =
        {
          sm_rounds;
          sm_conv_round;
          sm_final_ratio;
          sm_moved_frac;
          sm_transfers;
          sm_messages;
          sm_series_digest;
        };
    }

let bench_of_fields fields =
  let* b_name = str fields "name" in
  let* b_ns = num fields "ns" in
  Ok { b_name; b_ns }

let parse source =
  let lines = String.split_on_char '\n' source in
  let rec go lineno meta exps benches = function
    | [] -> (
      match (meta, exps) with
      | None, _ -> Error "no \"meta\" record"
      | Some _, [] -> Error "no experiment records"
      | Some m, _ ->
        Ok
          { f_meta = m; f_experiments = List.rev exps; f_benches = List.rev benches })
    | "" :: rest -> go (lineno + 1) meta exps benches rest
    | line :: rest -> (
      let result =
        let* fields = Trace.parse_flat_line line in
        let* kind = str fields "k" in
        match kind with
        | "meta" -> Result.map (fun m -> `Meta m) (meta_of_fields fields)
        | "experiment" ->
          Result.map (fun e -> `Experiment e) (experiment_of_fields fields)
        | "bench" -> Result.map (fun b -> `Bench b) (bench_of_fields fields)
        | k -> Error (Printf.sprintf "unknown record kind %S" k)
      in
      match result with
      | Ok (`Meta m) -> (
        match meta with
        | None -> go (lineno + 1) (Some m) exps benches rest
        | Some _ -> Error (Printf.sprintf "line %d: duplicate meta" lineno))
      | Ok (`Experiment e) -> go (lineno + 1) meta (e :: exps) benches rest
      | Ok (`Bench b) -> go (lineno + 1) meta exps (b :: benches) rest
      | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
  in
  go 1 None [] [] lines

(* Digest over the deterministic (simulation-derived) fields only, so
   two runs of the same revision agree byte-for-byte even though
   cpu/alloc differ. *)
let sim_digest f =
  let line e =
    let s = e.e_sim in
    Printf.sprintf "%s %d %d %s %s %d %d %s" e.e_name s.sm_rounds
      s.sm_conv_round (fts s.sm_final_ratio) (fts s.sm_moved_frac)
      s.sm_transfers s.sm_messages s.sm_series_digest
  in
  Digest.to_hex
    (Digest.string (String.concat "\n" (List.map line f.f_experiments)))

(* ---- the gate ---------------------------------------------------------- *)

(* Baselines below these floors are timer noise and are not compared. *)
let cpu_floor_s = 0.02
let alloc_floor_bytes = 1_000_000.0
let ns_floor = 100.0

type report = { rp_checked : int; rp_regressions : string list }

let pct_over ~base ~cur =
  if Float.compare base 0.0 <= 0 then 0.0
  else ((cur /. base) -. 1.0) *. 100.0

let diff ~max_regress_pct ~baseline ~current =
  let regress = ref [] in
  let checked = ref 0 in
  let flag fmt = Printf.ksprintf (fun s -> regress := s :: !regress) fmt in
  (* "<name>: <what><base><unit> -> <cur><unit>" when [cur] grew past
     the threshold over a baseline of at least [floor]. *)
  let grew ?(floor = 0.0) ?(unit = "") name what base cur =
    let pct = pct_over ~base ~cur in
    if Float.compare base floor >= 0 && Float.compare pct max_regress_pct > 0
    then
      flag "%s: %s%s%s -> %s%s (+%.1f%% > %.0f%%)" name what (fts base) unit
        (fts cur) unit pct max_regress_pct
  in
  (* cpu/alloc comparisons are only like-with-like at equal domain
     counts: a 4-domain run burns more total cpu per experiment than
     the sequential baseline even when it is strictly faster. *)
  if baseline.f_meta.m_jobs <> current.f_meta.m_jobs then
    flag "job counts differ (baseline --jobs %d, current --jobs %d): not comparable"
      baseline.f_meta.m_jobs current.f_meta.m_jobs;
  List.iter
    (fun (b : experiment) ->
      match
        List.find_opt
          (fun (c : experiment) -> String.equal c.e_name b.e_name)
          current.f_experiments
      with
      | None -> flag "experiment '%s' missing from current run" b.e_name
      | Some c ->
        incr checked;
        grew ~floor:cpu_floor_s ~unit:"s" b.e_name "cpu " b.e_cpu_s c.e_cpu_s;
        grew ~floor:alloc_floor_bytes ~unit:" bytes" b.e_name "alloc "
          b.e_alloc_bytes c.e_alloc_bytes;
        let bs = b.e_sim and cs = c.e_sim in
        if bs.sm_conv_round >= 0 && cs.sm_conv_round < 0 then
          flag "%s: no longer converges (baseline round %d)" b.e_name
            bs.sm_conv_round
        else if bs.sm_conv_round >= 0 && cs.sm_conv_round > bs.sm_conv_round
        then
          flag "%s: converges later (round %d -> %d)" b.e_name
            bs.sm_conv_round cs.sm_conv_round;
        grew b.e_name "transfers "
          (float_of_int bs.sm_transfers)
          (float_of_int cs.sm_transfers);
        grew b.e_name "messages "
          (float_of_int bs.sm_messages)
          (float_of_int cs.sm_messages))
    baseline.f_experiments;
  List.iter
    (fun (b : bench) ->
      match
        List.find_opt
          (fun (c : bench) -> String.equal c.b_name b.b_name)
          current.f_benches
      with
      | None -> () (* bench sets may shrink in smoke runs *)
      | Some c ->
        incr checked;
        grew ~floor:ns_floor ~unit:"ns" b.b_name "" b.b_ns c.b_ns)
    baseline.f_benches;
  { rp_checked = !checked; rp_regressions = List.rev !regress }
