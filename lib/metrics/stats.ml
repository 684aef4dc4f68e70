let total xs = Array.fold_left ( +. ) 0.0 xs

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

(* G = sum_i (2(i+1) - n - 1) x_(i) / (n * sum x), x sorted ascending:
   the mean absolute difference over all pairs, halved and divided by
   the mean. *)
let gini xs =
  Array.iter (fun x -> if x < 0.0 then invalid_arg "Stats.gini: negative") xs;
  let n = Array.length xs in
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  (* Summed in sorted order: the bits series.jsonl pins. *)
  let sum = total sorted in
  if n = 0 || Float.compare sum 0.0 <= 0 then 0.0
  else begin
    let acc = ref 0.0 in
    Array.iteri
      (fun i x -> acc := !acc +. (float_of_int ((2 * (i + 1)) - n - 1) *. x))
      sorted;
    !acc /. (float_of_int n *. sum)
  end
