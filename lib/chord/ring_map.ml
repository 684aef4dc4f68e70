module Id = P2plb_idspace.Id
module M = Map.Make (Int)

type 'a t = 'a M.t

let empty = M.empty
let add = M.add
let find_opt = M.find_opt
let fold = M.fold
let iter = M.iter

let fold_range ~lo_incl ~len f m acc =
  if len < 0 || len > Id.space_size then invalid_arg "Ring_map.fold_range";
  if len = 0 then acc
  else if len = Id.space_size then fold f m acc
  else begin
    let hi = lo_incl + len in
    (* Fold over the linear pieces of the wrap-around arc, starting the
       traversal at the first key >= lo so cost is O(log n + hits). *)
    let fold_linear lo hi acc =
      (* keys in [lo, hi) with 0 <= lo <= hi <= space_size *)
      let rec consume seq acc =
        match seq () with
        | Seq.Nil -> acc
        | Seq.Cons ((k, v), rest) ->
          if k >= hi then acc else consume rest (f k v acc)
      in
      consume (M.to_seq_from lo m) acc
    in
    if hi <= Id.space_size then fold_linear lo_incl hi acc
    else
      let acc = fold_linear lo_incl Id.space_size acc in
      fold_linear 0 (hi - Id.space_size) acc
  end
