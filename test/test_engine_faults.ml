module Faults = P2plb_sim.Faults

let check = Alcotest.check

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
    let log = ref [] in
    Faults.arm f ~start:0.0 ~horizon:10.0 ~population:100
      ~crash:(fun ~rank -> log := (Option.get (Faults.clock f), rank) :: !log);
    ignore (Faults.fire_until f ~time:infinity);
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
      ( "faults",
        [
          Alcotest.test_case "replay determinism" `Quick
            test_replay_determinism;
          Alcotest.test_case "zero loss draws nothing" `Quick
            test_zero_loss_draws_nothing;
        ] );
    ]
