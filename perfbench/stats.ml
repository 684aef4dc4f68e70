(* Summary statistics of the benchmark's own measurements. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Conventional percentiles, highest first. *)
let ladder = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

type tail = {
  pct : float;  (** 100 when no percentile qualifies: [value] is the max *)
  value : float;
  samples : int;
}

(* The highest percentile of [ladder] with at least ten samples beyond
   it (nearest rank), so a tail figure never rests on a handful of
   points; with too few samples for any of them, the maximum. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.tail: no samples";
  let rank p = int_of_float (Float.ceil (p *. float_of_int n /. 100.0)) in
  match List.find_opt (fun p -> n - rank p >= 10) ladder with
  | Some p -> { pct = p; value = a.(Int.max 0 (rank p - 1)); samples = n }
  | None -> { pct = 100.0; value = a.(n - 1); samples = n }

(* Share of failed operations: transfers that were skipped or aborted,
   plus failed output checks, over all of them. *)
let failed_frac ~transfers ~skipped ~aborted ~failed_checks =
  let failed = skipped + aborted + failed_checks in
  let attempted = transfers + failed in
  if attempted = 0 then 0.0 else float_of_int failed /. float_of_int attempted

(* Parallel efficiency: busy task time over the time [jobs] domains
   were available while the tasks ran. *)
let par_eff ~task_s ~jobs ~wall_s =
  if jobs < 1 || wall_s <= 0.0 then invalid_arg "Stats.par_eff";
  List.fold_left ( +. ) 0.0 task_s /. (float_of_int jobs *. wall_s)

(* Longest task over the mean task: 1 when the tasks are even. *)
let imbalance task_s =
  match task_s with
  | [] -> invalid_arg "Stats.imbalance: no tasks"
  | t :: _ ->
    let total = List.fold_left ( +. ) 0.0 task_s in
    let mean = total /. float_of_int (List.length task_s) in
    if mean <= 0.0 then 1.0 else List.fold_left Float.max t task_s /. mean
