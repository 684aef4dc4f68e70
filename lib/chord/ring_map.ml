module Id = P2plb_idspace.Id
module M = Map.Make (Int)

type 'a t = 'a M.t

let empty = M.empty
let is_empty = M.is_empty
let cardinal = M.cardinal
let add = M.add
let remove = M.remove
let find_opt = M.find_opt
let mem = M.mem

let min_binding_opt = M.min_binding_opt

let successor k m =
  match M.find_first_opt (fun key -> key >= k) m with
  | Some _ as hit -> hit
  | None -> min_binding_opt m (* wrap to the smallest id *)

let successor_strict k m =
  match M.find_first_opt (fun key -> key > k) m with
  | Some _ as hit -> hit
  | None -> min_binding_opt m

let predecessor_strict k m =
  match M.find_last_opt (fun key -> key < k) m with
  | Some _ as hit -> hit
  | None -> M.max_binding_opt m

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
