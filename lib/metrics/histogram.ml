type t = {
  mutable w : float array; (* index = bin *)
  mutable hi : int; (* largest touched bin *)
  mutable sum : float;
}

let create () = { w = Array.make 16 0.0; hi = -1; sum = 0.0 }

let ensure t bin =
  if bin >= Array.length t.w then begin
    let bigger = Array.make (Int.max (2 * Array.length t.w) (bin + 1)) 0.0 in
    Array.blit t.w 0 bigger 0 (Array.length t.w);
    t.w <- bigger
  end

let add t ~bin ~weight =
  if bin < 0 then invalid_arg "Histogram.add: negative bin";
  if weight < 0.0 then invalid_arg "Histogram.add: negative weight";
  ensure t bin;
  t.w.(bin) <- t.w.(bin) +. weight;
  t.sum <- t.sum +. weight;
  if bin > t.hi then t.hi <- bin

let total_weight t = t.sum
let max_bin t = t.hi

let weight_at t bin =
  if bin < 0 || bin >= Array.length t.w then 0.0 else t.w.(bin)

let fraction_at t bin = if t.sum > 0.0 then weight_at t bin /. t.sum else 0.0

let cumulative_fraction t b =
  if t.sum <= 0.0 then 0.0
  else begin
    let acc = ref 0.0 in
    for i = 0 to Int.min b t.hi do
      acc := !acc +. t.w.(i)
    done;
    !acc /. t.sum
  end

(* Total: empty histograms answer -1 for every p; NaN and
   out-of-range p are clamped into [0, 100] (NaN to 100).  p = 0
   lands on the first non-empty bin (the target weight 0 is reached
   immediately), p = 100 on the last. *)
let percentile_bin t p =
  if t.sum <= 0.0 then -1
  else begin
    let p =
      if Float.is_nan p then 100.0 else Float.max 0.0 (Float.min 100.0 p)
    in
    let target = p /. 100.0 *. t.sum in
    let acc = ref 0.0 and b = ref (-1) in
    (try
       for i = 0 to t.hi do
         acc := !acc +. t.w.(i);
         if !acc >= target && t.w.(i) > 0.0 then begin
           b := i;
           raise Exit
         end
       done
     with Exit -> ());
    if !b < 0 then t.hi else !b
  end

let bins t =
  let out = ref [] in
  for i = t.hi downto 0 do
    if t.w.(i) > 0.0 then out := (i, t.w.(i)) :: !out
  done;
  !out

let mean t =
  if t.sum <= 0.0 then 0.0
  else
    List.fold_left (fun acc (b, w) -> acc +. (float_of_int b *. w)) 0.0 (bins t)
    /. t.sum

let to_cdf t =
  let acc = ref 0.0 in
  List.map
    (fun (b, w) ->
      acc := !acc +. w;
      (b, !acc /. t.sum))
    (bins t)

let merge a b =
  let out = create () in
  let copy_from src =
    for i = 0 to src.hi do
      if src.w.(i) > 0.0 then add out ~bin:i ~weight:src.w.(i)
    done
  in
  copy_from a;
  copy_from b;
  out
