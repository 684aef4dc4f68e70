type t = int

let bits = 32
let space_size = 1 lsl bits
let mask = space_size - 1
let zero = 0

let of_int n = n land mask
let add a d = (a + d) land mask
let sub a d = (a - d) land mask

let distance_cw a b = (b - a) land mask

let in_range_excl_incl x ~lo ~hi =
  if lo = hi then true
  else distance_cw lo x <> 0 && distance_cw lo x <= distance_cw lo hi

let in_range_excl_excl x ~lo ~hi =
  if lo = hi then x <> lo
  else
    let dx = distance_cw lo x in
    dx <> 0 && dx < distance_cw lo hi

let midpoint_cw a b = add a (distance_cw a b / 2)

let of_fraction f =
  if f < 0.0 || f > 1.0 then invalid_arg "Id.of_fraction: out of [0,1]";
  of_int (int_of_float (f *. float_of_int space_size))

let compare = Int.compare
let equal = Int.equal

let hash_key salt s =
  (* 64-bit FNV-1a over the salt's four low bytes then the string,
     folded to 32 bits.  The state is a local ref no closure captures,
     so the compiler keeps it an unboxed register across both loops. *)
  let h = ref 0xCBF29CE484222325L in
  for i = 0 to 3 do
    let byte = (salt lsr (8 * i)) land 0xff in
    h := Int64.mul (Int64.logxor !h (Int64.of_int byte)) 0x100000001B3L
  done;
  for i = 0 to String.length s - 1 do
    let byte = Char.code s.[i] in
    h := Int64.mul (Int64.logxor !h (Int64.of_int byte)) 0x100000001B3L
  done;
  let h = !h in
  Int64.to_int (Int64.logxor h (Int64.shift_right_logical h 32)) land mask

let pp fmt x = Format.fprintf fmt "0x%08x" x
