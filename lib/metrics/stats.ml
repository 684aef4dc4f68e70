type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  total : float;
}

let total xs = Array.fold_left ( +. ) 0.0 xs

let mean xs =
  if Array.length xs = 0 then invalid_arg "Stats.mean: empty";
  total xs /. float_of_int (Array.length xs)

let stddev xs =
  let m = mean xs in
  let sq = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
  sqrt (sq /. float_of_int (Array.length xs))

let summarize xs =
  if Array.length xs = 0 then invalid_arg "Stats.summarize: empty";
  let lo = Array.fold_left Float.min xs.(0) xs in
  let hi = Array.fold_left Float.max xs.(0) xs in
  {
    n = Array.length xs;
    mean = mean xs;
    stddev = stddev xs;
    min = lo;
    max = hi;
    total = total xs;
  }

let percentile xs p =
  if Array.length xs = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
  if lo = hi then sorted.(lo)
  else
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)

let median xs = percentile xs 50.0

let gini xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.gini: empty";
  Array.iter (fun x -> if x < 0.0 then invalid_arg "Stats.gini: negative") xs;
  let s = total xs in
  if not (s > 0.0) then invalid_arg "Stats.gini: zero total";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  (* G = (2 * sum_i i*x_(i) ) / (n * sum x) - (n + 1) / n, i from 1. *)
  let weighted = ref 0.0 in
  for i = 0 to n - 1 do
    weighted := !weighted +. (float_of_int (i + 1) *. sorted.(i))
  done;
  (2.0 *. !weighted /. (float_of_int n *. s))
  -. ((float_of_int n +. 1.0) /. float_of_int n)

let max_over_mean xs =
  let m = mean xs in
  if not (m > 0.0) then invalid_arg "Stats.max_over_mean: mean <= 0";
  Array.fold_left Float.max xs.(0) xs /. m

let jain_index xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.jain_index: empty";
  Array.iter
    (fun x -> if x < 0.0 then invalid_arg "Stats.jain_index: negative")
    xs;
  let s = total xs in
  if not (s > 0.0) then invalid_arg "Stats.jain_index: zero total";
  let sq = Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 xs in
  s *. s /. (float_of_int n *. sq)

let lorenz xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.lorenz: empty";
  Array.iter (fun x -> if x < 0.0 then invalid_arg "Stats.lorenz: negative") xs;
  let s = total xs in
  if not (s > 0.0) then invalid_arg "Stats.lorenz: zero total";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let acc = ref 0.0 in
  (0.0, 0.0)
  :: List.init n (fun i ->
         acc := !acc +. sorted.(i);
         (float_of_int (i + 1) /. float_of_int n, !acc /. s))
