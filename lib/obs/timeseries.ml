module Report = P2plb_metrics.Report
module Stats = P2plb_metrics.Stats

(* Per-round load snapshots and the convergence detector.

   One sample per balancing round, recorded by Controller.run after
   the round's transfers commit.  Samples live in their own sink (not
   the trace), so the trace digest pins and the --metrics-out view of
   the trace keep holding; the JSONL encoding reuses the trace sink's
   canonical float spelling and is byte-identical across runs of the
   same seed. *)

type sample = {
  ts_round : int;
  ts_time : float; (* simulated time at the end of the round *)
  ts_live : int;
  ts_max : float; (* max unit load *)
  ts_fair : float; (* avg utilization: total load / total capacity *)
  ts_ratio : float; (* max / fair; 0 when fair is degenerate *)
  ts_gini : float;
  ts_over : float; (* fraction of live nodes above (1+eps) * fair *)
  ts_eps : float; (* the relative epsilon the sample was judged with *)
  ts_moved : float; (* load moved this round *)
  ts_cum : float; (* cumulative load moved *)
  ts_load : float; (* total system load *)
}

type t = { mutable rev_samples : sample list; mutable cum : float }

let create () = { rev_samples = []; cum = 0.0 }
let samples t = List.rev t.rev_samples

(* ---- pure statistics --------------------------------------------------- *)

let max_load loads = Array.fold_left Float.max 0.0 loads

let ratio ~unit_loads ~fair =
  if Float.compare fair 0.0 > 0 then max_load unit_loads /. fair else 0.0

let overloaded_fraction ~unit_loads ~fair ~epsilon =
  let n = Array.length unit_loads in
  if n = 0 || Float.compare fair 0.0 <= 0 then 0.0
  else begin
    let threshold = (1.0 +. epsilon) *. fair in
    let over =
      Array.fold_left
        (fun acc u -> if Float.compare u threshold > 0 then acc + 1 else acc)
        0 unit_loads
    in
    float_of_int over /. float_of_int n
  end

let record t ~round ~time ~epsilon ~unit_loads ~fair ~moved ~total_load =
  t.cum <- t.cum +. moved;
  let s =
    {
      ts_round = round;
      ts_time = time;
      ts_live = Array.length unit_loads;
      ts_max = max_load unit_loads;
      ts_fair = fair;
      ts_ratio = ratio ~unit_loads ~fair;
      ts_gini = Stats.gini unit_loads;
      ts_over = overloaded_fraction ~unit_loads ~fair ~epsilon;
      ts_eps = epsilon;
      ts_moved = moved;
      ts_cum = t.cum;
      ts_load = total_load;
    }
  in
  t.rev_samples <- s :: t.rev_samples;
  s

(* Append a child series as if it had been recorded next on the
   parent: times shift by [offset] (the parent trace's clock), round
   indices by the whole rounds in it (a round is one unit of simulated
   time, and Controller.run reads its index off the clock), and the
   cumulative column is re-folded over the parent's running total. *)
let merge ~into:parent ~offset child =
  let rounds = int_of_float offset in
  List.iter
    (fun s ->
      parent.cum <- parent.cum +. s.ts_moved;
      parent.rev_samples <-
        {
          s with
          ts_round = rounds + s.ts_round;
          ts_time = offset +. s.ts_time;
          ts_cum = parent.cum;
        }
        :: parent.rev_samples)
    (samples child)

(* ---- convergence detector ---------------------------------------------- *)

type verdict =
  | No_data
  | Converged of { c_round : int; c_ratio : float; c_moved_frac : float }
  | Not_converged of {
      n_rounds : int;
      n_final_ratio : float;
      n_best_ratio : float;
      n_diverging : bool;
    }

let converged_sample s = Float.compare s.ts_ratio (1.0 +. s.ts_eps) <= 0

let convergence samples =
  match samples with
  | [] -> No_data
  | first :: _ -> (
    match List.find_opt converged_sample samples with
    | Some s ->
      Converged
        {
          c_round = s.ts_round;
          c_ratio = s.ts_ratio;
          c_moved_frac =
            (if Float.compare s.ts_load 0.0 > 0 then s.ts_cum /. s.ts_load
             else 0.0);
        }
    | None ->
      let last = List.fold_left (fun _ s -> s) first samples in
      let best =
        List.fold_left
          (fun acc s -> Float.min acc s.ts_ratio)
          first.ts_ratio samples
      in
      Not_converged
        {
          n_rounds = List.length samples;
          n_final_ratio = last.ts_ratio;
          n_best_ratio = best;
          n_diverging = Float.compare last.ts_ratio first.ts_ratio > 0;
        })

let render_verdict = function
  | No_data -> "no samples: run with ?obs to record a time-series\n"
  | Converged { c_round; c_ratio; c_moved_frac } ->
    Printf.sprintf
      "converged at round %d: max/avg %s <= 1+eps (cumulative moved %s of \
       total load)\n"
      c_round
      (Report.float_cell c_ratio)
      (Report.percent_cell c_moved_frac)
  | Not_converged { n_rounds; n_final_ratio; n_best_ratio; n_diverging } ->
    Printf.sprintf
      "not converged after %d rounds: final max/avg %s (best %s)%s\n" n_rounds
      (Report.float_cell n_final_ratio)
      (Report.float_cell n_best_ratio)
      (if n_diverging then " — DIVERGING (imbalance grew)" else "")

(* ---- JSONL sink -------------------------------------------------------- *)

let add_sample buf s =
  Buffer.add_string buf
    (Printf.sprintf
       "{\"round\":%d,\"t\":%s,\"live\":%d,\"max\":%s,\"fair\":%s,\"ratio\":%s,\"gini\":%s,\"over\":%s,\"eps\":%s,\"moved\":%s,\"cum\":%s,\"load\":%s}\n"
       s.ts_round
       (Trace.float_to_string s.ts_time)
       s.ts_live
       (Trace.float_to_string s.ts_max)
       (Trace.float_to_string s.ts_fair)
       (Trace.float_to_string s.ts_ratio)
       (Trace.float_to_string s.ts_gini)
       (Trace.float_to_string s.ts_over)
       (Trace.float_to_string s.ts_eps)
       (Trace.float_to_string s.ts_moved)
       (Trace.float_to_string s.ts_cum)
       (Trace.float_to_string s.ts_load))

let jsonl_of_samples samples =
  let buf = Buffer.create (128 * (List.length samples + 1)) in
  List.iter (add_sample buf) samples;
  Buffer.contents buf

let to_jsonl t = jsonl_of_samples (samples t)
let digest t = Digest.to_hex (Digest.string (to_jsonl t))

let write t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_jsonl t))

let render samples =
  let rows =
    List.map
      (fun s ->
        [
          string_of_int s.ts_round;
          string_of_int s.ts_live;
          Report.float_cell s.ts_max;
          Report.float_cell s.ts_fair;
          Report.float_cell s.ts_ratio;
          Report.float_cell s.ts_gini;
          Report.percent_cell s.ts_over;
          Report.float_cell s.ts_moved;
          Report.percent_cell
            (if Float.compare s.ts_load 0.0 > 0 then s.ts_cum /. s.ts_load
             else 0.0);
        ])
      samples
  in
  Report.table ~title:"Per-round load time-series"
    ~header:
      [ "round"; "live"; "max"; "fair"; "max/avg"; "gini"; "over"; "moved"; "cum/total" ]
    rows
  ^ render_verdict (convergence samples)
