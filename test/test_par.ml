(* lib/sim/par: the deterministic domain pool.

   Two kinds of coverage: the pool's own contract (ordering, empty
   input, exception propagation, a raise leaving the bundle alone) and
   the headline determinism claim — running every registry experiment
   and a chaos soak at --jobs 4 produces byte-identical reports,
   traces, metrics and timeseries to --jobs 1, on one timeline whose
   clock never runs backwards.
   The parity cases are what the @par-smoke alias runs in tier-1. *)

module Par = P2plb_sim.Par
module Obs = P2plb_obs.Obs
module Trace = P2plb_obs.Trace
module Spantree = P2plb_obs.Spantree
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

(* A raising task merges nothing, at every job count: the parent
   bundle reads as it did before [run], and the tasks after the raise
   still run. *)
let test_exception_leaves_obs () =
  List.iter
    (fun jobs ->
      let obs = Obs.create () in
      Trace.set_time (Obs.trace obs) 2.0;
      Trace.point (Obs.trace obs) "parent/before";
      let sinks () =
        ( Trace.to_jsonl (Obs.trace obs),
          Spantree.dump_totals (Spantree.of_run (Obs.trace obs)),
          Timeseries.digest (Obs.series obs),
          Trace.now (Obs.trace obs) )
      in
      let before = sinks () in
      let ran = Array.make 8 false in
      let raised =
        match
          Par.run (Par.create ~jobs) ~obs ~n:8 (fun i o ->
              ran.(i) <- true;
              Option.iter
                (fun o ->
                  Trace.set_time (Obs.trace o) 1.0;
                  Trace.point (Obs.trace o) "task")
                o;
              if i = 3 then raise (Boom i))
        with
        | _ -> false
        | exception Boom 3 -> true
      in
      let what = Printf.sprintf "jobs %d" jobs in
      check Alcotest.bool (what ^ ": the raise reaches the caller") true raised;
      check Alcotest.bool (what ^ ": every task ran") true
        (Array.for_all Fun.id ran);
      check Alcotest.bool (what ^ ": bundle unchanged") true (before = sinks ()))
    [ 1; 4 ]

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
    (what ^ ": metrics view identical")
    (Spantree.dump_totals (Spantree.of_run (Obs.trace seq)))
    (Spantree.dump_totals (Spantree.of_run (Obs.trace par)));
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

(* Each entry's outcome and bundle on a 1- and a 4-worker pool, run
   once and shared by the cases that read them. *)
let registry_runs =
  lazy
    (List.map
       (fun (e : E.entry) ->
         let run jobs =
           let obs = Obs.create () in
           (e.E.run ~pool:(Par.create ~jobs) ~obs small, obs)
         in
         (e, run 1, run 4))
       E.registry)

let test_registry_parity () =
  List.iter
    (fun ((e : E.entry), (seq, obs_seq), (par, obs_par)) ->
      check Alcotest.string
        (e.E.name ^ ": report byte-identical")
        seq.E.text par.E.text;
      check
        Alcotest.(list (pair string string))
        (e.E.name ^ ": CSV byte-identical")
        seq.E.csv par.E.csv;
      assert_obs_parity ~what:e.E.name obs_seq obs_par)
    (Lazy.force registry_runs)

(* ---- one timeline ------------------------------------------------------- *)

let check_times_never_decrease ~what obs =
  ignore
    (List.fold_left
       (fun prev (ev : Trace.ev) ->
         if Float.compare ev.Trace.time prev < 0 then
           Alcotest.failf "%s: time runs back from %g to %g at seq %d" what
             prev ev.Trace.time ev.Trace.seq;
         ev.Trace.time)
       Float.neg_infinity
       (Trace.events (Obs.trace obs)))

(* Fan-outs are laid end to end: no registry entry's trace runs its
   clock backwards, at either job count. *)
let test_registry_timeline () =
  List.iter
    (fun ((e : E.entry), (_, obs_seq), (_, obs_par)) ->
      check_times_never_decrease ~what:(e.E.name ^ " at jobs 1") obs_seq;
      check_times_never_decrease ~what:(e.E.name ^ " at jobs 4") obs_par)
    (Lazy.force registry_runs)

(* Task i advances its own clock by i + 1, so the parent's clock ends
   at the sum of the advances, whatever the job count. *)
let test_clock_advances_sum () =
  List.iter
    (fun jobs ->
      let obs = Obs.create () in
      let (_ : unit array) =
        Par.run (Par.create ~jobs) ~obs ~n:5 (fun i o ->
            Option.iter
              (fun o ->
                let t = Obs.trace o in
                Trace.point t "task/start";
                Trace.set_time t (Trace.now t +. float_of_int (i + 1));
                Trace.point t "task/end")
              o)
      in
      let what = Printf.sprintf "jobs %d" jobs in
      check (Alcotest.float 0.0)
        (what ^ ": clock = 1 + 2 + 3 + 4 + 5")
        15.0
        (Trace.now (Obs.trace obs));
      check_times_never_decrease ~what obs)
    [ 1; 4 ]

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
          Alcotest.test_case "a raise leaves the bundle unchanged" `Quick
            test_exception_leaves_obs;
        ] );
      ( "parity",
        [
          Alcotest.test_case "registry entries seq vs 4 workers" `Quick
            test_registry_parity;
          Alcotest.test_case "chaos soak seq vs 4 workers" `Quick
            test_chaos_parity;
          Alcotest.test_case "registry entries: times never decrease" `Quick
            test_registry_timeline;
          Alcotest.test_case "task clocks laid end to end" `Quick
            test_clock_advances_sum;
        ] );
    ]
