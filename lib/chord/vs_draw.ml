let draw_bits = 30
let max_draws = 1 lsl draw_bits
let draw_mask = max_draws - 1
let key_id k = k lsr draw_bits
let key_draw k = k land draw_mask

(* Stable LSD radix sort of [keys] on their 32 id bits, 8 at a time.
   An even number of passes leaves the result in [keys]. *)
let radix_sort keys =
  let n = Array.length keys in
  let count = Array.make 256 0 in
  let src = ref keys and dst = ref (Array.make n 0) in
  for pass = 0 to 3 do
    let shift = draw_bits + (8 * pass) and s = !src and d = !dst in
    Array.fill count 0 256 0;
    for i = 0 to n - 1 do
      let b = (s.(i) lsr shift) land 0xff in
      count.(b) <- count.(b) + 1
    done;
    let total = ref 0 in
    for b = 0 to 255 do
      let c = count.(b) in
      count.(b) <- !total;
      total := !total + c
    done;
    for i = 0 to n - 1 do
      let k = s.(i) in
      let b = (k lsr shift) land 0xff in
      d.(count.(b)) <- k;
      count.(b) <- count.(b) + 1
    done;
    src := d;
    dst := s
  done

(* Index of the first key >= k in the sorted [keys], or its length. *)
let lower_bound keys k = Ring_index.lower_bound_in keys k 0 (Array.length keys)

module Int_set = Set.Make (Int)

(* Draw [d] takes its salt-0 id unless a draw before it holds that id
   by then: the first draw of a run of equal salt-0 ids keeps it (the
   rest move), unless an earlier mover re-drew it first.  [movers]
   are the draws known to move, handled in draw order; [redrawn] the
   ids the movers before the current one took.  A re-drawn id [y] is
   taken if a mover before took it, or if the first draw whose salt-0
   id is [y] comes no later (it kept [y], or [y] was re-drawn before
   it moved).  Otherwise the mover takes [y], and that first draw, if
   it comes later, must move too.  Returns each mover's draw and its
   new id, latest first. *)
let fix_collisions ~hash keys movers =
  let rec next movers redrawn moved =
    match Int_set.min_elt_opt movers with
    | None -> moved
    | Some d ->
      let rec redraw salt movers =
        let y = hash ~draw:d ~salt in
        let i = lower_bound keys (y lsl draw_bits) in
        let first =
          if i < Array.length keys && key_id keys.(i) = y then
            Some (key_draw keys.(i))
          else None
        in
        match first with
        | _ when Int_set.mem y redrawn -> redraw (salt + 1) movers
        | Some g when g <= d -> redraw (salt + 1) movers
        | Some g -> (y, Int_set.add g movers)
        | None -> (y, movers)
      in
      let y, movers = redraw 1 (Int_set.remove d movers) in
      next movers (Int_set.add y redrawn) ((d, y) :: moved)
  in
  next movers Int_set.empty []

let sorted_keys ~hash n =
  if n < 0 || n >= max_draws then invalid_arg "Vs_draw.sorted_keys: count";
  let keys = Array.make n 0 in
  for d = 0 to n - 1 do
    keys.(d) <- (hash ~draw:d ~salt:0 lsl draw_bits) lor d
  done;
  radix_sort keys;
  let movers = ref Int_set.empty in
  for i = 1 to n - 1 do
    if key_id keys.(i) = key_id keys.(i - 1) then
      movers := Int_set.add (key_draw keys.(i)) !movers
  done;
  if not (Int_set.is_empty !movers) then begin
    (* Find every mover's slot while [keys] is still sorted. *)
    let slots =
      List.map
        (fun (d, y) ->
          ( lower_bound keys ((hash ~draw:d ~salt:0 lsl draw_bits) lor d),
            (y lsl draw_bits) lor d ))
        (fix_collisions ~hash keys !movers)
    in
    List.iter (fun (i, k) -> keys.(i) <- k) slots;
    radix_sort keys
  end;
  keys
