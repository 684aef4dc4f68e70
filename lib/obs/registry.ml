module Histogram = P2plb_metrics.Histogram

(* Handles carry their name and owner so journaled registries can log
   every update as it happens; the journal is replayed in order by
   [merge], which keeps float accumulation bit-exact across the
   sequential/parallel boundary (see DESIGN.md §12). *)
type counter = { c_name : string; c_owner : t; mutable c : int }
and gauge = { g_name : string; g_owner : t; mutable g : float }

and op =
  | Op_add of string * int
  | Op_accum of string * float
  | Op_hist of string * int * float

and t = {
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  hists : (string, Histogram.t) Hashtbl.t;
  journaling : bool;
  mutable journal : op list; (* newest first; empty unless journaling *)
}

let create ?(journal = false) () =
  {
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 32;
    hists = Hashtbl.create 8;
    journaling = journal;
    journal = [];
  }

let log t op = if t.journaling then t.journal <- op :: t.journal

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
    let c = { c_name = name; c_owner = t; c = 0 } in
    Hashtbl.replace t.counters name c;
    c

let add c n =
  c.c <- c.c + n;
  log c.c_owner (Op_add (c.c_name, n))

let count c = c.c

let gauge t name =
  match Hashtbl.find_opt t.gauges name with
  | Some g -> g
  | None ->
    let g = { g_name = name; g_owner = t; g = 0.0 } in
    Hashtbl.replace t.gauges name g;
    g

let accum g v =
  g.g <- g.g +. v;
  log g.g_owner (Op_accum (g.g_name, v))

let value g = g.g

let histogram t name =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
    let h = Histogram.create () in
    Hashtbl.replace t.hists name h;
    h

let hist_add t name ~bin ~weight =
  Histogram.add (histogram t name) ~bin ~weight;
  log t (Op_hist (name, bin, weight))

let merge ~into child =
  List.iter
    (fun op ->
      match op with
      | Op_add (name, n) -> add (counter into name) n
      | Op_accum (name, v) -> accum (gauge into name) v
      | Op_hist (name, bin, weight) -> hist_add into name ~bin ~weight)
    (List.rev child.journal)

let find_counter t name = Option.map count (Hashtbl.find_opt t.counters name)
let find_gauge t name = Option.map value (Hashtbl.find_opt t.gauges name)
let find_histogram t name = Hashtbl.find_opt t.hists name

let render_hist h =
  if Histogram.max_bin h < 0 then "empty"
  else
    Printf.sprintf "total=%s max_bin=%d p50=%d p99=%d"
      (Trace.float_to_string (Histogram.total_weight h))
      (Histogram.max_bin h)
      (Histogram.percentile_bin h 50.0)
      (Histogram.percentile_bin h 99.0)

let rows t =
  let collected =
    Hashtbl.fold (fun k c acc -> (k, string_of_int c.c) :: acc) t.counters []
  in
  let collected =
    Hashtbl.fold
      (fun k g acc -> (k, Trace.float_to_string g.g) :: acc)
      t.gauges collected
  in
  let collected =
    Hashtbl.fold (fun k h acc -> (k, render_hist h) :: acc) t.hists collected
  in
  (* Names are unique per kind but could collide across kinds; the
     value renders differ, so sort on the whole pair. *)
  List.sort
    (fun (a, av) (b, bv) ->
      match String.compare a b with 0 -> String.compare av bv | c -> c)
    collected

let dump t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf k;
      Buffer.add_string buf " = ";
      Buffer.add_string buf v;
      Buffer.add_char buf '\n')
    (rows t);
  Buffer.contents buf

let digest t = Digest.to_hex (Digest.string (dump t))

let write t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (dump t))
