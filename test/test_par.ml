(* lib/sim/par: the deterministic domain pool.

   Two kinds of coverage: the pool's own contract (ordering, empty
   input, exception propagation) and the headline determinism claim —
   running every registry experiment and a chaos soak at --jobs 4
   produces byte-identical reports, traces, metrics and timeseries to
   --jobs 1.
   The parity cases are what the @par-smoke alias runs in tier-1. *)

module Par = P2plb_sim.Par
module Obs = P2plb_obs.Obs
module Trace = P2plb_obs.Trace
module Registry = P2plb_obs.Registry
module Timeseries = P2plb_obs.Timeseries
module E = P2plb.Experiments
module Chaos = P2plb_chaos.Chaos

let check = Alcotest.check

(* ---- pool contract ------------------------------------------------------ *)

let test_result_order () =
  let pool = Par.create ~jobs:4 in
  let out = Par.run pool ~n:10 (fun i _ -> i * i) in
  check
    Alcotest.(array int)
    "results in task-index order"
    (Array.init 10 (fun i -> i * i))
    out

let test_empty () =
  let pool = Par.create ~jobs:4 in
  let out = Par.run pool ~n:0 (fun i _ -> i) in
  check Alcotest.int "no tasks, no results" 0 (Array.length out)

exception Boom of int

let test_exception_propagates () =
  let pool = Par.create ~jobs:4 in
  let raised =
    match Par.run pool ~n:8 (fun i _ -> if i = 3 then raise (Boom i) else i) with
    | _ -> false
    | exception Boom 3 -> true
  in
  check Alcotest.bool "task exception reaches the caller" true raised

let test_bad_jobs () =
  let rejected =
    match Par.create ~jobs:0 with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check Alcotest.bool "jobs < 1 rejected" true rejected

(* ---- seq/par parity ----------------------------------------------------- *)

(* The determinism contract, checked end to end: report string, trace
   JSONL, metrics digest and timeseries digest must each be
   byte-identical between a sequential and a 4-worker run. *)
let assert_obs_parity ~what seq par =
  check Alcotest.string
    (what ^ ": trace JSONL byte-identical")
    (Trace.to_jsonl (Obs.trace seq))
    (Trace.to_jsonl (Obs.trace par));
  check Alcotest.string
    (what ^ ": metrics digest identical")
    (Registry.digest (Obs.metrics seq))
    (Registry.digest (Obs.metrics par));
  check Alcotest.string
    (what ^ ": timeseries digest identical")
    (Timeseries.digest (Obs.series seq))
    (Timeseries.digest (Obs.series par))

(* Every registry entry at small N, on a 1- and a 4-worker pool. *)
let small =
  {
    E.defaults with
    E.p_nodes = 64;
    p_graphs = 2;
    p_sizes = [ 256; 512 ];
    p_rounds = 2;
  }

let test_registry_parity () =
  List.iter
    (fun (e : E.entry) ->
      let run jobs =
        let obs = Obs.create () in
        (e.E.run ~pool:(Par.create ~jobs) ~obs small, obs)
      in
      let seq, obs_seq = run 1 in
      let par, obs_par = run 4 in
      check Alcotest.string
        (e.E.name ^ ": report byte-identical")
        seq.E.text par.E.text;
      check
        Alcotest.(list (pair string string))
        (e.E.name ^ ": CSV byte-identical")
        seq.E.csv par.E.csv;
      assert_obs_parity ~what:e.E.name obs_seq obs_par)
    E.registry

let test_chaos_parity () =
  let obs_seq = Obs.create () in
  let r_seq =
    Chaos.soak ~obs:obs_seq ~n_nodes:64 ~max_rounds:2 ~seeds:4 ~base_seed:1 ()
  in
  let obs_par = Obs.create () in
  let r_par =
    Chaos.soak
      ~pool:(Par.create ~jobs:4)
      ~obs:obs_par ~n_nodes:64 ~max_rounds:2 ~seeds:4 ~base_seed:1 ()
  in
  check Alcotest.string "chaos soak: report byte-identical"
    (Chaos.render r_seq) (Chaos.render r_par);
  check Alcotest.bool "chaos soak: same verdict" (Chaos.failed r_seq)
    (Chaos.failed r_par);
  assert_obs_parity ~what:"chaos soak" obs_seq obs_par

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "results in task order" `Quick test_result_order;
          Alcotest.test_case "n = 0" `Quick test_empty;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagates;
          Alcotest.test_case "jobs < 1 rejected" `Quick test_bad_jobs;
        ] );
      ( "parity",
        [
          Alcotest.test_case "registry entries seq vs 4 workers" `Quick
            test_registry_parity;
          Alcotest.test_case "chaos soak seq vs 4 workers" `Quick
            test_chaos_parity;
        ] );
    ]
