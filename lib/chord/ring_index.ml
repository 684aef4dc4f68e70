module Id = P2plb_idspace.Id

type t = {
  mutable version : int;
  mutable shift : int;
  (* [first.(j)]: the index of the first id >= [j lsl shift], for
     j in [0, 2^(32 - shift)]; the last entry is the id count. *)
  mutable first : int array;
}

let create () = { version = -1; shift = Id.bits; first = [| 0; 0 |] }

(* Index of the first id >= k in [lo, hi) of the sorted [ids], or hi
   if none. *)
let lower_bound_in (ids : int array) k lo hi =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if ids.(mid) >= k then hi := mid else lo := mid + 1
  done;
  !lo

(* The largest b with 2^b <= n, 0 for n <= 1. *)
let log2_floor n =
  let rec go b = if 1 lsl (b + 1) <= n then go (b + 1) else b in
  go 0

let rebuild t ~version (ids : int array) n =
  let b = log2_floor n in
  let shift = Id.bits - b in
  let buckets = 1 lsl b in
  let first =
    if Array.length t.first = buckets + 1 then t.first
    else Array.make (buckets + 1) 0
  in
  let i = ref 0 in
  for j = 0 to buckets - 1 do
    let start = j lsl shift in
    while !i < n && ids.(!i) < start do
      incr i
    done;
    first.(j) <- !i
  done;
  first.(buckets) <- n;
  t.first <- first;
  t.shift <- shift;
  t.version <- version

let lower_bound t ~version ids n k =
  if t.version <> version then rebuild t ~version ids n;
  let j = k lsr t.shift in
  lower_bound_in ids k t.first.(j) t.first.(j + 1)
