module Obs = P2plb_obs.Obs
module Trace = P2plb_obs.Trace
module Prng = P2plb_prng.Prng

(* Deterministic domain pool — see par.mli for the contract and
   DESIGN.md §12 for the design discussion. *)

type t = { jobs : int }

let create ~jobs =
  if jobs < 1 then invalid_arg "Par.create: jobs must be >= 1";
  { jobs }

let sequential = { jobs = 1 }
let jobs t = t.jobs

(* [Array.init]'s evaluation order is unspecified, so result collection
   uses explicit index loops throughout. *)

let get = function Some v -> v | None -> assert false

let run_sequential ?obs ~n f =
  let results = Array.make n None in
  for i = 0 to n - 1 do
    results.(i) <- Some (f i obs)
  done;
  Array.map get results

let run_parallel pool ?obs ~task_time ~n f =
  (* Private bundles, clocks preset by the sequential-time left-fold:
     task i starts where tasks 0..i-1 would have left the shared clock.
     The fold uses the same [+.] association a sequential run performs,
     so the preset floats are bit-identical to the times the tasks
     would have observed. *)
  let children =
    match obs with
    | None -> [||]
    | Some parent ->
      let starts = Array.make n 0.0 in
      starts.(0) <- Trace.now (Obs.trace parent);
      for i = 1 to n - 1 do
        starts.(i) <- starts.(i - 1) +. task_time (i - 1)
      done;
      Array.init n (fun i -> Obs.create_task ~start_time:starts.(i))
  in
  let task_obs i = if Array.length children = 0 then None else Some children.(i) in
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
    Array.init (Int.min pool.jobs n - 1) (fun _ -> Domain.spawn worker)
  in
  worker ();
  Array.iter Domain.join helpers;
  Array.iter (function Some e -> raise e | None -> ()) errors;
  (match obs with
  | None -> ()
  | Some parent ->
    for i = 0 to n - 1 do
      Obs.merge ~into:parent children.(i)
    done);
  Array.map get results

let run pool ?obs ?(task_time = fun _ -> 1.0) ~n f =
  if n = 0 then [||]
  else if pool.jobs <= 1 || n <= 1 then run_sequential ?obs ~n f
  else run_parallel pool ?obs ~task_time ~n f
