module Obs = P2plb_obs.Obs
module Prng = P2plb_prng.Prng

(* Deterministic domain pool — see par.mli for the contract and
   DESIGN.md §12 for the design discussion. *)

type t = { jobs : int }

let create ~jobs =
  if jobs < 1 then invalid_arg "Par.create: jobs must be >= 1";
  { jobs }

let sequential = { jobs = 1 }

(* [Array.init]'s evaluation order is unspecified, so result collection
   uses explicit index loops throughout. *)

let get = function Some v -> v | None -> assert false

let run pool ?obs ~n f =
  (* One path for every job count: each task records into a fresh
     bundle, and the bundles are laid end to end on the parent in
     task-index order once every task has finished. *)
  let children =
    match obs with None -> [||] | Some _ -> Array.init n (fun _ -> Obs.create ())
  in
  let task_obs i = Option.map (fun _ -> children.(i)) obs in
  let results = Array.make n None in
  let errors = Array.make n None in
  let next = Atomic.make 0 in
  let worker () =
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (match f i (task_obs i) with
        | v -> results.(i) <- Some v
        | exception e -> errors.(i) <- Some e);
        go ()
      end
    in
    go ()
  in
  let helpers =
    Array.init (Int.max 0 (Int.min pool.jobs n - 1)) (fun _ ->
        Domain.spawn worker)
  in
  worker ();
  Array.iter Domain.join helpers;
  Array.iter (function Some e -> raise e | None -> ()) errors;
  Option.iter
    (fun parent ->
      for i = 0 to n - 1 do
        Obs.merge ~into:parent children.(i)
      done)
    obs;
  Array.map get results
