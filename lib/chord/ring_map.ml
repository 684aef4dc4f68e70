module Id = P2plb_idspace.Id
module M = Map.Make (Int)

type 'a t = 'a M.t

let empty = M.empty
let add = M.add
let find_opt = M.find_opt
let fold = M.fold
let iter = M.iter

