type t = { start : Id.t; len : int }

let make ~start ~len =
  if len < 0 || len > Id.space_size then invalid_arg "Region.make: bad len";
  let start = if len = Id.space_size then Id.zero else start in
  { start; len }

let whole = { start = Id.zero; len = Id.space_size }
let empty_at start = { start; len = 0 }

let is_empty r = r.len = 0
let is_whole r = r.len = Id.space_size
let len r = r.len
let start r = r.start

let last r =
  if is_empty r then invalid_arg "Region.last: empty region";
  Id.add r.start (r.len - 1)

let contains r x =
  if is_whole r then true
  else if is_empty r then false
  else Id.distance_cw r.start x < r.len

let covers ~outer ~inner =
  if is_empty inner then true
  else if is_whole outer then true
  else if inner.len > outer.len then false
  else
    let off = Id.distance_cw outer.start inner.start in
    off + inner.len <= outer.len

let center r =
  if is_empty r then invalid_arg "Region.center: empty region";
  Id.add r.start (r.len / 2)

let split r k =
  if k < 1 then invalid_arg "Region.split: k < 1";
  let base = r.len / k and extra = r.len mod k in
  let parts = Array.make k (empty_at r.start) in
  let pos = ref r.start in
  for i = 0 to k - 1 do
    let li = base + if i < extra then 1 else 0 in
    parts.(i) <- { start = !pos; len = li };
    pos := Id.add !pos li
  done;
  parts

let between_excl_incl ~lo ~hi =
  if lo = hi then whole
  else
    let len = Id.distance_cw lo hi in
    { start = Id.add lo 1; len }

(* A circular arc unwraps to at most two linear intervals on
   [0, space_size). *)
let linear_pieces r =
  if is_empty r then []
  else
    let e = r.start + r.len in
    if e <= Id.space_size then [ (r.start, e) ]
    else [ (r.start, Id.space_size); (0, e - Id.space_size) ]

let overlap_len a b =
  let pieces_a = linear_pieces a and pieces_b = linear_pieces b in
  let inter (s1, e1) (s2, e2) = Int.max 0 (Int.min e1 e2 - Int.max s1 s2) in
  List.fold_left
    (fun acc pa ->
      List.fold_left (fun acc pb -> acc + inter pa pb) acc pieces_b)
    0 pieces_a

let equal a b =
  a.len = b.len && (a.len = 0 || a.len = Id.space_size || a.start = b.start)
