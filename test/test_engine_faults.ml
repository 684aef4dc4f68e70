module Engine = P2plb_sim.Engine
module Faults = P2plb_sim.Faults

let check = Alcotest.check

(* A periodic action cancelling a *different* pending event: the
   victim must never fire even though it is already in the heap. *)
let test_cancel_other_inside_periodic () =
  let e = Engine.create () in
  let victim_fired = ref false and ticks = ref 0 in
  let victim = Engine.schedule e ~delay:5.5 (fun _ -> victim_fired := true) in
  ignore
    (Engine.schedule_periodic e ~interval:1.0 (fun e ->
         incr ticks;
         if Engine.now e >= 3.0 then Engine.cancel victim));
  Engine.run_until e ~time:10.0;
  check Alcotest.bool "victim cancelled from periodic" false !victim_fired;
  check Alcotest.int "periodic kept running" 10 !ticks

let test_run_until_boundary () =
  let e = Engine.create () in
  let log = ref [] in
  let ev tag delay =
    ignore (Engine.schedule e ~delay (fun _ -> log := tag :: !log))
  in
  ev "before" 4.5;
  ev "at-1" 5.0;
  ev "at-2" 5.0;
  ev "after" 5.0000001;
  Engine.run_until e ~time:5.0;
  check
    Alcotest.(list string)
    "events at exactly t fire, in schedule order"
    [ "before"; "at-1"; "at-2" ]
    (List.rev !log);
  check (Alcotest.float 1e-12) "clock pinned to boundary" 5.0 (Engine.now e);
  check Alcotest.int "later event still pending" 1 (Engine.pending e);
  (* Re-running to the same boundary is a no-op. *)
  Engine.run_until e ~time:5.0;
  check Alcotest.int "idempotent at boundary" 3 (List.length !log)

(* The heap slot vacated by pop must not retain the event closure:
   once an event has fired, its environment is collectable even while
   the engine itself stays alive. *)
let test_pop_releases_closure () =
  let e = Engine.create () in
  let w : int array Weak.t = Weak.create 1 in
  let plant () =
    let payload = Array.make 4096 42 in
    Weak.set w 0 (Some payload);
    ignore
      (Engine.schedule e ~delay:1.0 (fun _ ->
           ignore (Sys.opaque_identity payload.(0))))
  in
  plant ();
  ignore (Engine.run e);
  Gc.full_major ();
  check Alcotest.bool "fired event's closure is collectable" false
    (Weak.check w 0);
  ignore (Sys.opaque_identity e)

(* Same seed + same config => the plan injects byte-identical faults:
   send outcomes, crash schedule (times and ranks). *)
let test_replay_determinism () =
  let mk () = Faults.create ~seed:42 (Faults.churn ()) in
  let a = mk () and b = mk () in
  let outcomes f =
    List.init 200 (fun _ ->
        match Faults.send f with Faults.Delivered n -> n | Faults.Lost -> -1)
  in
  check Alcotest.(list int) "send streams replay" (outcomes a) (outcomes b);
  check Alcotest.int "retry counters replay" (Faults.retries a)
    (Faults.retries b);
  let schedule f =
    let e = Engine.create () in
    let log = ref [] in
    Faults.arm f e ~horizon:10.0 ~population:100
      ~crash:(fun ~rank -> log := (Engine.now e, rank) :: !log);
    ignore (Engine.run e);
    List.rev !log
  in
  let sa = schedule a and sb = schedule b in
  check Alcotest.int "10% of 100 crashes armed" 10 (List.length sa);
  check Alcotest.bool "crash schedules replay" true (sa = sb);
  check Alcotest.bool "times strictly within horizon" true
    (List.for_all (fun (t, _) -> t > 0.0 && t <= 10.0) sa)

(* With zero loss the reliable send must not touch the random stream:
   the loss decisions that follow are unaffected by how many sends
   happened before them. *)
let test_zero_loss_draws_nothing () =
  let lossy seed = Faults.create ~seed (Faults.churn ~message_loss:0.25 ()) in
  let a = lossy 7 and b = lossy 7 in
  let lossless =
    Faults.create ~seed:99 { Faults.none with Faults.max_attempts = 4 }
  in
  for _ = 1 to 1000 do
    match Faults.send lossless with
    | Faults.Delivered 1 -> ()
    | _ -> Alcotest.fail "zero-loss send must deliver on attempt 1"
  done;
  check Alcotest.int "no retries without loss" 0 (Faults.retries lossless);
  check Alcotest.int "no drops without loss" 0 (Faults.drops lossless);
  (* interleave: a drains sends; b drains the same number; equal tails *)
  let drain f n = List.init n (fun _ -> Faults.deliver f) in
  check
    Alcotest.(list bool)
    "lossy streams agree pairwise" (drain a 500) (drain b 500)

let () =
  Alcotest.run "engine_faults"
    [
      ( "engine",
        [
          Alcotest.test_case "cancel other from periodic" `Quick
            test_cancel_other_inside_periodic;
          Alcotest.test_case "run_until boundary" `Quick
            test_run_until_boundary;
          Alcotest.test_case "pop releases closure" `Quick
            test_pop_releases_closure;
        ] );
      ( "faults",
        [
          Alcotest.test_case "replay determinism" `Quick
            test_replay_determinism;
          Alcotest.test_case "zero loss draws nothing" `Quick
            test_zero_loss_draws_nothing;
        ] );
    ]
