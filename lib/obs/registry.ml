module Histogram = P2plb_metrics.Histogram

type counter = { mutable c : int }
type gauge = { mutable g : float }

type t = {
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  hists : (string, Histogram.t) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 32;
    hists = Hashtbl.create 8;
  }

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
    let c = { c = 0 } in
    Hashtbl.replace t.counters name c;
    c

let add c n = c.c <- c.c + n
let count c = c.c

let gauge t name =
  match Hashtbl.find_opt t.gauges name with
  | Some g -> g
  | None ->
    let g = { g = 0.0 } in
    Hashtbl.replace t.gauges name g;
    g

let accum g v = g.g <- g.g +. v
let value g = g.g

let histogram t name =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
    let h = Histogram.create () in
    Hashtbl.replace t.hists name h;
    h

let hist_add t name ~bin ~weight = Histogram.add (histogram t name) ~bin ~weight

let merge ~into child =
  (* p2plint: allow-unordered — each name merges on its own *)
  Hashtbl.iter (fun name c -> add (counter into name) c.c) child.counters;
  (* p2plint: allow-unordered — each name merges on its own *)
  Hashtbl.iter (fun name g -> accum (gauge into name) g.g) child.gauges;
  (* p2plint: allow-unordered — each name merges on its own *)
  Hashtbl.iter
    (fun name h ->
      let into_h = histogram into name in
      List.iter
        (fun (bin, weight) -> Histogram.add into_h ~bin ~weight)
        (Histogram.bins h))
    child.hists

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
