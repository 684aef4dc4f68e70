(* The state lives in an 8-byte cell, not a mutable [int64] field:
   storing a new [int64] into a field boxes it, so every draw would
   allocate.  [step] reads and writes the cell unboxed. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  (* SplitMix64 finaliser: two xor-shift-multiply rounds. *)
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create ~seed = of_state (mix64 (Int64.of_int seed))

let copy = Bytes.copy

let[@inline] step t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 s;
  mix64 s

let bits64 t = step t

let split t = of_state (step t)

let[@inline] unit_float t =
  (* 53 high bits of the raw output, scaled to [0, 1).  Inlined, so
     [bernoulli] compares the draw unboxed. *)
  let bits = Int64.shift_right_logical (step t) 11 in
  Int64.to_float bits *. 0x1p-53

let float t bound = unit_float t *. bound

let bernoulli t p = unit_float t < p

(* Rejection sampling on the top range multiple of [bound], over the
   draw's high 63 bits.  A top-level loop that returns an [int]: the
   [int64] temporaries stay unboxed and no closure is made. *)
let rec int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound <= 0";
  let raw = Int64.shift_right_logical (step t) 1 in
  let b = Int64.of_int bound in
  let v = Int64.rem raw b in
  if Int64.sub raw v > Int64.(sub (sub max_int b) 1L) then int t bound
  else Int64.to_int v

let int_in t ~lo ~hi =
  if lo > hi then invalid_arg "Prng.int_in: lo > hi";
  lo + int t (hi - lo + 1)

let bool t = Int64.compare (Int64.logand (step t) 1L) 0L <> 0

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_distinct t ~n ~universe =
  if n > universe then invalid_arg "Prng.sample_distinct: n > universe";
  if n < 0 then invalid_arg "Prng.sample_distinct: n < 0";
  (* For small samples use a hash set of picks; for dense samples use a
     partial Fisher–Yates over the whole universe. *)
  if n * 4 <= universe then begin
    let seen = Hashtbl.create (2 * n) in
    let out = Array.make n 0 in
    let filled = ref 0 in
    while !filled < n do
      let v = int t universe in
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.add seen v ();
        out.(!filled) <- v;
        incr filled
      end
    done;
    out
  end
  else begin
    let a = Array.init universe (fun i -> i) in
    for i = 0 to n - 1 do
      let j = int_in t ~lo:i ~hi:(universe - 1) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done;
    Array.sub a 0 n
  end

let choose t a =
  if Array.length a = 0 then invalid_arg "Prng.choose: empty array";
  a.(int t (Array.length a))
