module Histogram = P2plb_metrics.Histogram
module Report = P2plb_metrics.Report

(* Span-forest reconstruction and critical-path analytics over a
   trace's event list.  Begin events carry explicit parent ids, each
   validated against the replayed open-span set.  The same pass counts
   point events per name and rebuilds the Fig. 7 hop histograms from
   vst/transfer points.  All outputs are deterministic — ordering comes
   from event order and typed sorts, never from hash-table traversal. *)

type node = {
  nd_id : int;
  nd_name : string;
  nd_parent : int;
  nd_t0 : float;
  nd_t1 : float;
  nd_attrs : (string * Trace.value) list;
  nd_points : int;
  nd_children : node list;
}

type t = {
  roots : node list;
  point_counts : (string * int) list;
  hop_histograms : (string * Histogram.t) list;
}

type builder = {
  b_id : int;
  b_name : string;
  b_parent : int;
  b_t0 : float;
  mutable b_t1 : float;
  mutable b_closed : bool;
  mutable b_attrs : (string * Trace.value) list; (* reversed *)
  mutable b_children : builder list; (* reversed, begin order *)
  mutable b_points : int;
  b_mode : string; (* the begin event's "mode" attr, "all" without one *)
}

let attr_float = function
  | Trace.Float f -> Some f
  | Trace.Int i -> Some (float_of_int i)
  | Trace.Bool _ | Trace.Str _ -> None

(* The cell of [key] in an association list of mutable cells, added
   with [init ()] on first sight; the list stays in first-seen order. *)
let cell cells key init =
  match List.assoc_opt key !cells with
  | Some c -> c
  | None ->
    let c = init () in
    cells := (key, c) :: !cells;
    c

let by_key l = List.sort (fun (a, _) (b, _) -> String.compare a b) l

(* One pass over the events: the builders, roots, point counts and hop
   histograms, and the first structural error.  Spans left open stay
   unclosed; {!of_events} rejects them and {!of_run} closes them. *)
type scan = {
  s_all : builder list; (* reversed creation order *)
  s_roots : builder list; (* reversed *)
  s_points : (string * int ref) list;
  s_hops : (string * Histogram.t) list;
  s_err : string option;
}

let scan evs =
  let by_id : (int, builder) Hashtbl.t = Hashtbl.create 64 in
  let all = ref [] in
  let roots = ref [] in
  let stack = ref [] (* open span ids, innermost first *) in
  let points = ref [] (* point name -> count *) in
  let hops = ref [] (* enclosing span's mode -> histogram *) in
  let err = ref None in
  let fail msg = if Option.is_none !err then err := Some msg in
  let on_begin (e : Trace.ev) =
    if Hashtbl.mem by_id e.span then
      fail (Printf.sprintf "span %d ('%s') begins twice" e.span e.name)
    else if e.parent >= 0 && not (List.exists (Int.equal e.parent) !stack)
    then
      fail
        (Printf.sprintf
           "span %d ('%s') declares parent %d, which is not an open span \
            (orphan parent)"
           e.span e.name e.parent)
    else begin
      let b =
        {
          b_id = e.span;
          b_name = e.name;
          b_parent = e.parent;
          b_t0 = e.time;
          b_t1 = e.time;
          b_closed = false;
          b_attrs = List.rev e.attrs;
          b_children = [];
          b_points = 0;
          b_mode =
            (match List.assoc_opt "mode" e.attrs with
            | Some (Trace.Str m) -> m
            | Some (Trace.Bool _ | Trace.Int _ | Trace.Float _) | None ->
              "all");
        }
      in
      Hashtbl.replace by_id e.span b;
      all := b :: !all;
      (match Hashtbl.find_opt by_id e.parent with
      | Some p -> p.b_children <- b :: p.b_children
      | None -> roots := b :: !roots);
      stack := e.span :: !stack
    end
  in
  let on_end (e : Trace.ev) =
    match Hashtbl.find_opt by_id e.span with
    | Some b when not b.b_closed ->
      b.b_t1 <- e.time;
      b.b_closed <- true;
      b.b_attrs <- List.rev_append e.attrs b.b_attrs;
      stack := List.filter (fun id -> not (Int.equal id e.span)) !stack
    | Some _ ->
      fail (Printf.sprintf "span %d ('%s') ends twice" e.span e.name)
    | None ->
      fail
        (Printf.sprintf
           "end of span %d ('%s') with no matching begin (unbalanced trace)"
           e.span e.name)
  in
  (* A point counts toward its span and its name; a vst/transfer point
     also adds its load at its hop distance to the histogram of its
     span's mode. *)
  let on_point (e : Trace.ev) =
    let span = if e.span >= 0 then Hashtbl.find_opt by_id e.span else None in
    Option.iter (fun b -> b.b_points <- b.b_points + 1) span;
    incr (cell points e.name (fun () -> ref 0));
    if String.equal e.name "vst/transfer" then
      let num k = Option.bind (List.assoc_opt k e.attrs) attr_float in
      match (num "hops", num "load") with
      | Some bin, Some weight ->
        let mode = match span with Some b -> b.b_mode | None -> "all" in
        Histogram.add (cell hops mode Histogram.create) ~bin:(int_of_float bin)
          ~weight
      | _ -> ()
  in
  List.iter
    (fun (e : Trace.ev) ->
      if Option.is_none !err then
        match e.kind with
        | Trace.Begin -> on_begin e
        | Trace.End -> on_end e
        | Trace.Point -> on_point e)
    evs;
  {
    s_all = !all;
    s_roots = !roots;
    s_points = !points;
    s_hops = !hops;
    s_err = !err;
  }

let freeze s =
  let rec node b =
    {
      nd_id = b.b_id;
      nd_name = b.b_name;
      nd_parent = b.b_parent;
      nd_t0 = b.b_t0;
      nd_t1 = b.b_t1;
      nd_attrs = List.rev b.b_attrs;
      nd_points = b.b_points;
      nd_children = List.rev_map node b.b_children |> List.rev;
    }
  in
  {
    roots = List.rev_map node s.s_roots |> List.rev;
    point_counts = by_key (List.map (fun (k, n) -> (k, !n)) s.s_points);
    hop_histograms = by_key s.s_hops;
  }

let of_events evs =
  let s = scan evs in
  let unclosed = List.find_opt (fun b -> not b.b_closed) (List.rev s.s_all) in
  match (s.s_err, unclosed) with
  | Some msg, _ -> Error msg
  | None, Some b ->
    Error
      (Printf.sprintf "span %d ('%s') never ends (unbalanced trace)" b.b_id
         b.b_name)
  | None, None -> Ok (freeze s)

let of_run trace =
  let s = scan (Trace.events trace) in
  Option.iter (fun msg -> invalid_arg ("Spantree.of_run: " ^ msg)) s.s_err;
  List.iter
    (fun b -> if not b.b_closed then b.b_t1 <- Trace.now trace)
    s.s_all;
  freeze s

(* ---- analytics --------------------------------------------------------- *)

let extent n = n.nd_t1 -. n.nd_t0

let self_time n =
  let kids = List.fold_left (fun acc c -> acc +. extent c) 0.0 n.nd_children in
  Float.max 0.0 (extent n -. kids)

let rec n_spans forest =
  List.fold_left (fun acc n -> acc + 1 + n_spans n.nd_children) 0 forest

let rec depth forest =
  List.fold_left (fun acc n -> Int.max acc (1 + depth n.nd_children)) 0 forest

(* Longest-extent child chain; ties break toward the earlier child so
   the path is a deterministic function of the forest. *)
let critical_path root =
  let rec go n acc =
    match n.nd_children with
    | [] -> List.rev (n :: acc)
    | c :: cs ->
      let best =
        List.fold_left
          (fun best c' ->
            if Float.compare (extent c') (extent best) > 0 then c' else best)
          c cs
      in
      go best (n :: acc)
  in
  go root []

type round = { r_index : int; r_roots : node list }

(* Every root — a ["round"] span or the bare phase spans of a
   controller round run alone — goes to the round containing its start
   time: a round occupies one unit of simulated time, and runs laid end
   to end on one trace never share one. *)
let rounds forest =
  let tbl = ref [] in
  List.iter
    (fun n ->
      let i = int_of_float n.nd_t0 in
      match List.assoc_opt i !tbl with
      | Some acc -> acc := n :: !acc
      | None -> tbl := (i, ref [ n ]) :: !tbl)
    forest;
  List.map (fun (i, acc) -> { r_index = i; r_roots = List.rev !acc }) !tbl
  |> List.sort (fun a b -> Int.compare a.r_index b.r_index)

type phase_row = {
  p_name : string;
  p_count : int;
  p_time : float;
  p_self : float;
  p_totals : (string * float) list;
}

(* How a span's numeric attr folds into its name's total: counts add
   up, a round's index is its key, not a figure, and a snapshot — a
   tree's depth or size, or the heavy/light/neutral census of one
   round — is a high-water mark: summed over rounds it would count
   node-rounds. *)
let snapshot_attrs = [ "depth"; "heavy"; "light"; "neutral"; "nodes" ]

let add_attr totals (k, v) =
  match (k, attr_float v) with
  | "index", _ | _, None -> totals
  | _, Some x -> (
    let combine =
      if List.mem k snapshot_attrs then Float.max else ( +. )
    in
    match List.assoc_opt k totals with
    | Some cur -> (k, combine cur x) :: List.remove_assoc k totals
    | None -> (k, x) :: totals)

(* Per-name aggregate over every span in the trees.  Sorted by name. *)
let phase_rows roots =
  let rows = ref [] in
  let rec visit n =
    let row = cell rows n.nd_name (fun () -> ref (0, 0.0, 0.0, [])) in
    let c, e, s, totals = !row in
    row :=
      ( c + 1,
        e +. extent n,
        s +. self_time n,
        List.fold_left add_attr totals n.nd_attrs );
    List.iter visit n.nd_children
  in
  List.iter visit roots;
  List.map
    (fun (name, row) ->
      let c, e, s, totals = !row in
      {
        p_name = name;
        p_count = c;
        p_time = e;
        p_self = s;
        p_totals = by_key totals;
      })
    (by_key !rows)

(* ---- the totals view ([--metrics-out]) --------------------------------- *)

(* The whole-trace figures as "name = value" rows: each span name's
   count and attr totals (folded by [phase_rows], as the whole-trace
   table folds them), each point name's count, and each hop
   histogram's summary. *)
let render_hist h =
  if Histogram.max_bin h < 0 then "empty"
  else
    Printf.sprintf "total=%s max_bin=%d p50=%d p99=%d"
      (Trace.float_to_string (Histogram.total_weight h))
      (Histogram.max_bin h)
      (Histogram.percentile_bin h 50.0)
      (Histogram.percentile_bin h 99.0)

let totals t =
  let spans =
    List.concat_map
      (fun p ->
        (p.p_name, string_of_int p.p_count)
        :: List.map
             (fun (k, v) -> (p.p_name ^ "." ^ k, Trace.float_to_string v))
             p.p_totals)
      (phase_rows t.roots)
  in
  let points =
    List.map (fun (name, n) -> (name, string_of_int n)) t.point_counts
  in
  let hops =
    List.map
      (fun (mode, h) -> ("vst/transfer.hops." ^ mode, render_hist h))
      t.hop_histograms
  in
  List.sort
    (fun (a, av) (b, bv) ->
      match String.compare a b with 0 -> String.compare av bv | c -> c)
    (spans @ points @ hops)

let dump_totals t =
  String.concat ""
    (List.map (fun (k, v) -> k ^ " = " ^ v ^ "\n") (totals t))

let write_totals trace ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (dump_totals (of_run trace)))

let round_extent r =
  List.fold_left (fun acc n -> acc +. extent n) 0.0 r.r_roots

(* The round's critical path: the chain under its longest root. *)
let round_critical_path r =
  match r.r_roots with
  | [] -> []
  | n :: ns ->
    let best =
      List.fold_left
        (fun best n' ->
          if Float.compare (extent n') (extent best) > 0 then n' else best)
        n ns
    in
    critical_path best

let matches_phase phase row =
  match phase with None -> true | Some p -> String.equal p row.p_name

let select_rounds round forest =
  let rs = rounds forest in
  match round with
  | None -> rs
  | Some i -> List.filter (fun r -> Int.equal r.r_index i) rs

(* ---- rendering --------------------------------------------------------- *)

let path_to_string path =
  String.concat " > "
    (List.map
       (fun n -> Printf.sprintf "%s[%s]" n.nd_name (Report.float_cell (extent n)))
       path)

let totals_to_string totals =
  String.concat " "
    (List.map
       (fun (k, v) ->
         if Float.is_integer v && Float.abs v < 1e15 then
           Printf.sprintf "%s=%.0f" k v
         else Printf.sprintf "%s=%.4g" k v)
       totals)

let render_hops named =
  let max_bin =
    List.fold_left (fun m (_, h) -> Int.max m (Histogram.max_bin h)) (-1) named
  in
  let rows =
    List.filter_map
      (fun b ->
        if List.for_all (fun (_, h) -> Histogram.weight_at h b = 0.0) named
        then None
        else
          Some
            (string_of_int b
            :: List.concat_map
                 (fun (_, h) ->
                   [
                     Report.percent_cell (Histogram.fraction_at h b);
                     Report.percent_cell (Histogram.cumulative_fraction h b);
                   ])
                 named))
      (List.init (max_bin + 1) Fun.id)
  in
  let cdf_series h =
    List.map (fun (b, f) -> (float_of_int b, f)) (Histogram.to_cdf h)
  in
  Report.table
    ~title:
      "Hop-cost of transferred load, reconstructed from vst/transfer \
       events (grouped by the enclosing span's mode)"
    ~header:
      ("hops"
      :: List.concat_map (fun (m, _) -> [ m ^ " %"; m ^ " CDF" ]) named)
    rows
  ^ "\n"
  ^ Report.ascii_plot ~title:"CDF of moved load vs transfer distance"
      ~x_label:"hops" ~y_label:"CDF"
      ~series:(List.map (fun (m, h) -> (m, cdf_series h)) named)
      ()

let render ?phase ?round t =
  let buf = Buffer.create 1024 in
  let forest = t.roots in
  let rs = select_rounds round forest in
  Buffer.add_string buf
    (Printf.sprintf "span forest: %d spans, %d rounds, depth %d\n"
       (n_spans forest) (List.length rs) (depth forest));
  List.iter
    (fun r ->
      let total = round_extent r in
      let rows =
        List.filter (matches_phase phase) (phase_rows r.r_roots)
        |> List.map (fun p ->
               [
                 p.p_name;
                 string_of_int p.p_count;
                 Report.float_cell p.p_time;
                 Report.float_cell p.p_self;
                 (if Float.compare total 0.0 > 0 then
                    Report.percent_cell (p.p_time /. total)
                  else "-");
               ])
      in
      Buffer.add_char buf '\n';
      Buffer.add_string buf
        (Report.table
           ~title:
             (Printf.sprintf "round %d (sim-time %s)" r.r_index
                (Report.float_cell total))
           ~header:[ "span"; "count"; "time"; "self"; "share" ]
           rows);
      match round_critical_path r with
      | [] -> ()
      | path ->
        Buffer.add_string buf
          (Printf.sprintf "critical path: %s\n" (path_to_string path)))
    rs;
  (* The whole-trace sections cover every round; [?phase] still narrows
     the span table. *)
  (match List.filter (matches_phase phase) (phase_rows forest) with
  | [] -> ()
  | rows ->
    Buffer.add_char buf '\n';
    Buffer.add_string buf
      (Report.table ~title:"whole trace (attrs summed; depth, heavy, light, neutral: the max)"
         ~header:[ "span"; "count"; "time"; "self"; "totals" ]
         (List.map
            (fun p ->
              [
                p.p_name;
                string_of_int p.p_count;
                Report.float_cell p.p_time;
                Report.float_cell p.p_self;
                totals_to_string p.p_totals;
              ])
            rows)));
  (match t.point_counts with
  | [] -> ()
  | points ->
    Buffer.add_char buf '\n';
    Buffer.add_string buf
      (Report.table ~title:"Point events" ~header:[ "event"; "count" ]
         (List.map (fun (name, n) -> [ name; string_of_int n ]) points)));
  (match t.hop_histograms with
  | [] -> ()
  | named ->
    Buffer.add_char buf '\n';
    Buffer.add_string buf (render_hops named));
  Buffer.contents buf

(* Machine-readable report: one flat JSON object per line, floats in
   the canonical round-tripping spelling so the output is byte-stable. *)
let to_jsonl ?phase ?round t =
  let buf = Buffer.create 1024 in
  let forest = t.roots in
  let rs = select_rounds round forest in
  Buffer.add_string buf
    (Printf.sprintf "{\"k\":\"forest\",\"spans\":%d,\"rounds\":%d,\"depth\":%d}\n"
       (n_spans forest) (List.length rs) (depth forest));
  List.iter
    (fun r ->
      let path = round_critical_path r in
      let crit =
        String.concat ">" (List.map (fun n -> n.nd_name) path)
      in
      let crit_time =
        match path with [] -> 0.0 | n :: _ -> extent n
      in
      Buffer.add_string buf
        (Printf.sprintf
           "{\"k\":\"round\",\"round\":%d,\"time\":%s,\"crit\":%s,\"crit_time\":%s}\n"
           r.r_index
           (Trace.float_to_string (round_extent r))
           (Trace.json_string crit)
           (Trace.float_to_string crit_time));
      List.iter
        (fun p ->
          Buffer.add_string buf
            (Printf.sprintf
               "{\"k\":\"phase\",\"round\":%d,\"name\":%s,\"count\":%d,\"time\":%s,\"self\":%s}\n"
               r.r_index (Trace.json_string p.p_name) p.p_count
               (Trace.float_to_string p.p_time)
               (Trace.float_to_string p.p_self)))
        (List.filter (matches_phase phase) (phase_rows r.r_roots)))
    rs;
  List.iter
    (fun (name, n) ->
      Buffer.add_string buf
        (Printf.sprintf "{\"k\":\"point\",\"name\":%s,\"count\":%d}\n"
           (Trace.json_string name) n))
    t.point_counts;
  List.iter
    (fun (mode, h) ->
      List.iter
        (fun (bin, load) ->
          Buffer.add_string buf
            (Printf.sprintf
               "{\"k\":\"hops\",\"mode\":%s,\"bin\":%d,\"load\":%s}\n"
               (Trace.json_string mode) bin
               (Trace.float_to_string load)))
        (Histogram.bins h))
    t.hop_histograms;
  Buffer.contents buf
