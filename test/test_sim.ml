(* The fault plan's schedule: crashes, partitions and heals drawn at
   [Faults.arm] and fired in time order by [Faults.fire_until].  The
   fired sequence is read back from the trace's ["fault/*"] points and
   compared with a plain model of the ordering rule: events fire by
   time, equal times in scheduling order, and a heal is scheduled when
   its partition fires, [partition_duration] later. *)

module Prng = P2plb_prng.Prng
module Faults = P2plb_sim.Faults
module Obs = P2plb_obs.Obs
module Trace = P2plb_obs.Trace

let check = Alcotest.check

type ev = Crash of float | Partition of int | Heal of int

let ev_eq a b =
  match (a, b) with
  | Crash x, Crash y -> Float.equal x y
  | Partition x, Partition y | Heal x, Heal y -> x = y
  | _ -> false

let fired_eq (ta, a) (tb, b) = Float.equal ta tb && ev_eq a b

let pp_fired fmt (t, e) =
  match e with
  | Crash r -> Format.fprintf fmt "%h crash %h" t r
  | Partition p -> Format.fprintf fmt "%h partition %d" t p
  | Heal p -> Format.fprintf fmt "%h heal %d" t p

let fired_list = Alcotest.(list (testable pp_fired fired_eq))

let seed = 21
let population = 50

let config ~duration =
  Faults.churn ~crash_fraction:0.2 ~message_loss:0.0 ~partitions:3
    ~partition_duration:duration ()

(* A plan that reports through its own trace, and what it has fired. *)
let plan ~duration =
  let f = Faults.create ~seed (config ~duration) in
  let obs = Obs.create () in
  Faults.attach_obs f obs;
  (f, obs)

let fired obs =
  List.filter_map
    (fun (e : Trace.ev) ->
      let int k = match List.assoc k e.attrs with Trace.Int i -> i | _ -> -1 in
      match e.name with
      | "fault/crash" -> (
        match List.assoc "rank" e.attrs with
        | Trace.Float r -> Some (e.time, Crash r)
        | _ -> None)
      | "fault/partition" -> Some (e.time, Partition (int "epoch"))
      | "fault/heal" -> Some (e.time, Heal (int "epoch"))
      | _ -> None)
    (Trace.events (Obs.trace obs))

let arm f ~horizon =
  Faults.arm f ~start:0.0 ~horizon ~population ~crash:(fun ~rank:_ -> ())

(* The plan's draws, replayed from its plan stream ([Faults.create]
   splits the loss stream, then the plan stream, off the seed): each
   crash's time and rank, then each partition's time, from [start]. *)
let draws ?(seed = seed) ?(n_crashes = 10) ?(partitions = 3) ?(skip = 0)
    ?(start = 0.0) ~horizon () =
  let master = Prng.create ~seed in
  ignore (Prng.split master : Prng.t);
  let rng = Prng.split master in
  for _ = 1 to skip do
    ignore (Prng.bits64 rng : int64)
  done;
  let crashes =
    Array.to_list
      (Array.init n_crashes (fun _ ->
           let at = start +. Prng.float rng horizon in
           (at, Crash (Prng.unit_float rng))))
  in
  let partitions =
    Array.to_list
      (Array.init partitions (fun i ->
           (start +. Prng.float rng horizon, Partition (i + 1))))
  in
  crashes @ partitions

(* The ordering rule, event by event: pop the earliest (time, seq);
   a fired partition schedules its heal with the next seq. *)
let model ~duration evs =
  let seq = ref 0 in
  let next () =
    incr seq;
    !seq
  in
  let queue = ref (List.map (fun (at, e) -> (at, next (), e)) evs) in
  let out = ref [] in
  while !queue <> [] do
    let ((at, _, e) as first) =
      List.fold_left
        (fun ((a, s, _) as best) ((b, r, _) as x) ->
          if b < a || (b = a && r < s) then x else best)
        (List.hd !queue) !queue
    in
    queue := List.filter (fun x -> x != first) !queue;
    out := (at, e) :: !out;
    match e with
    | Partition p -> queue := (at +. duration, next (), Heal p) :: !queue
    | _ -> ()
  done;
  List.rev !out

let horizon = 3.0
let duration = 0.5

let clock = Alcotest.(option (float 0.0))

let test_clock_zero () =
  let f, _ = plan ~duration in
  check clock "no clock before arm" None (Faults.clock f);
  check Alcotest.int "unarmed plan fires nothing" 0
    (Faults.fire_until f ~time:10.0);
  check clock "still unarmed" None (Faults.clock f);
  arm f ~horizon;
  check clock "armed at 0" (Some 0.0) (Faults.clock f)

let test_clock_advances () =
  let f, _ = plan ~duration in
  arm f ~horizon;
  ignore (Faults.fire_until f ~time:0.2);
  check clock "at the barrier" (Some 0.2) (Faults.clock f);
  let seen = ref [] in
  Faults.arm f ~start:0.0 ~horizon ~population ~crash:(fun ~rank:_ ->
      seen := Option.get (Faults.clock f) :: !seen);
  ignore (Faults.fire_until f ~time:horizon);
  check Alcotest.bool "crashes fired" true (!seen <> []);
  check Alcotest.bool "clock reads each event's time while it fires" true
    (List.for_all (fun t -> t >= 0.0 && t < horizon) !seen);
  check clock "then the last barrier" (Some horizon) (Faults.clock f)

let test_time_order () =
  let f, obs = plan ~duration in
  arm f ~horizon;
  let n = Faults.fire_until f ~time:infinity in
  let got = fired obs in
  check Alcotest.int "every draw and heal fired" (10 + 3 + 3) n;
  check fired_list "time order" (model ~duration (draws ~horizon ())) got;
  let times = List.map fst got in
  check Alcotest.bool "non-decreasing" true
    (List.sort Float.compare times = times)

(* A subnormal horizon and duration make most times equal: the order
   among them is the draw order, heals last.  A duration of 2^60 rounds
   every heal to one time: they fire in their partitions' order. *)
let test_tie_order () =
  List.iter
    (fun (horizon, duration) ->
      let f, obs = plan ~duration in
      arm f ~horizon;
      ignore (Faults.fire_until f ~time:infinity);
      let got = fired obs in
      let distinct = List.sort_uniq Float.compare (List.map fst got) in
      check Alcotest.bool "ties happened" true
        (List.length distinct < List.length got);
      check fired_list "draw order among ties, heals by their partitions"
        (model ~duration (draws ~horizon ()))
        got)
    [ (Float.succ 0.0, Float.succ 0.0); (horizon, 0x1p60) ]

let is_partition = function Partition _ -> true | _ -> false
let is_crash = function Crash _ -> true | _ -> false

let test_heal_after_partition () =
  let full = model ~duration (draws ~horizon ()) in
  let time_of e = fst (List.find (fun (_, x) -> ev_eq x e) full) in
  for p = 1 to 3 do
    check (Alcotest.float 0.0)
      (Printf.sprintf "heal %d exactly duration after" p)
      (time_of (Partition p) +. duration)
      (time_of (Heal p))
  done;
  (* stop between the first partition and its heal *)
  let first =
    List.fold_left (fun a p -> Float.min a (time_of (Partition p))) infinity
      [ 1; 2; 3 ]
  in
  let f, obs = plan ~duration in
  arm f ~horizon;
  ignore (Faults.fire_until f ~time:(first +. (duration /. 2.0)));
  let got = fired obs in
  check Alcotest.bool "partition fired, its heal not yet" true
    (List.exists (fun (t, e) -> t = first && is_partition e) got
    && Faults.partition_active f);
  (* a barrier before every partition fires none, and no heal *)
  let f, obs = plan ~duration in
  arm f ~horizon;
  ignore (Faults.fire_until f ~time:(Float.pred first));
  check Alcotest.bool "no partition, no heal" true
    (List.for_all (fun (_, e) -> is_crash e) (fired obs));
  check Alcotest.int "no episode formed" 0 (Faults.partitions_formed f)

let test_barrier_inclusive () =
  let full = model ~duration (draws ~horizon ()) in
  let at, _ = List.nth full 5 in
  let before = List.length (List.filter (fun (t, _) -> t < at) full) in
  let exact = List.length (List.filter (fun (t, _) -> t = at) full) in
  let f, obs = plan ~duration in
  arm f ~horizon;
  check Alcotest.int "just before the event's time" before
    (Faults.fire_until f ~time:(Float.pred at));
  check Alcotest.int "at the event's time it fires" exact
    (Faults.fire_until f ~time:at);
  check (Alcotest.float 0.0) "stamped with its own time" at
    (fst (List.nth (fired obs) before))

let test_fire_until_due () =
  let f, obs = plan ~duration in
  arm f ~horizon:10.0;
  let barrier = 3.0 in
  ignore (Faults.fire_until f ~time:barrier);
  let due =
    List.filter
      (fun (t, _) -> t <= barrier)
      (model ~duration (draws ~horizon:10.0 ()))
  in
  check fired_list "exactly the events due by the last barrier" due (fired obs);
  check Alcotest.bool "some were left" true
    (List.length due < List.length (draws ~horizon:10.0 ()))

(* A balancing run that converges early leaves its later rounds'
   crashes unfired. *)
let test_past_last_round () =
  let s =
    P2plb.Scenario.build ~seed:3 { P2plb.Scenario.default with n_nodes = 128 }
  in
  let faults = Faults.create ~seed:3 (Faults.churn ()) in
  let r = P2plb.Multiround.run ~faults ~max_rounds:10 s in
  let rounds = float_of_int (List.length r.P2plb.Multiround.rounds) in
  let drawn = draws ~seed:3 ~n_crashes:13 ~partitions:0 ~horizon:10.0 () in
  let due = List.filter (fun (t, _) -> t <= rounds) drawn in
  check Alcotest.bool "stopped before the horizon" true (rounds < 10.0);
  check Alcotest.bool "later crashes were drawn" true
    (List.length due < List.length drawn);
  check Alcotest.int "crashes fired only in the rounds run"
    (List.length due) r.P2plb.Multiround.crashes

let test_rearm () =
  let f, obs = plan ~duration in
  let first = ref 0 in
  Faults.arm f ~start:0.0 ~horizon:10.0 ~population ~crash:(fun ~rank:_ ->
      incr first);
  ignore (Faults.fire_until f ~time:2.0);
  let first_fired = !first and n_before = List.length (fired obs) in
  let second = ref 0 in
  (* armed at the clock's time: the new schedule starts there *)
  Faults.arm f ~start:2.0 ~horizon ~population ~crash:(fun ~rank:_ ->
      incr second);
  check Alcotest.(option (float 0.0)) "clock restarts at start" (Some 2.0)
    (Faults.clock f);
  ignore (Faults.fire_until f ~time:infinity);
  check Alcotest.int "old callback never called again" first_fired !first;
  check Alcotest.int "new schedule's crashes all fired" 10 !second;
  (* the second arm draws on from where the first one stopped *)
  let skip = (2 * 10) + 3 in
  check fired_list "only the new schedule fires"
    (model ~duration (draws ~skip ~start:2.0 ~horizon ()))
    (List.filteri (fun i _ -> i >= n_before) (fired obs))

let test_replay () =
  let run () =
    let f, obs = plan ~duration in
    arm f ~horizon;
    List.iter
      (fun t -> ignore (Faults.fire_until f ~time:t))
      [ 0.2; 0.4; 0.7; 1.0; 1.2; 1.4; 1.7; 2.0; 3.0 ];
    (fired obs, Faults.crashes f, Faults.partitions_formed f)
  in
  let a, ca, pa = run () and b, cb, pb = run () in
  check fired_list "same events, same times" a b;
  check Alcotest.int "same crashes" ca cb;
  check Alcotest.int "same partitions" pa pb;
  check fired_list "barrier-by-barrier = all at once"
    (model ~duration (draws ~horizon ()))
    a

let () =
  Alcotest.run "sim"
    [
      ( "schedule",
        [
          Alcotest.test_case "clock zero at arm" `Quick test_clock_zero;
          Alcotest.test_case "clock advances to each barrier" `Quick
            test_clock_advances;
          Alcotest.test_case "order by time" `Quick test_time_order;
          Alcotest.test_case "ties in draw order" `Quick test_tie_order;
          Alcotest.test_case "heal after its partition" `Quick
            test_heal_after_partition;
          Alcotest.test_case "fire_until fires what is due" `Quick
            test_fire_until_due;
          Alcotest.test_case "event at a barrier fires there" `Quick
            test_barrier_inclusive;
          Alcotest.test_case "events past the last round never fire" `Quick
            test_past_last_round;
          Alcotest.test_case "re-arm discards the old schedule" `Quick
            test_rearm;
          Alcotest.test_case "replay determinism" `Quick test_replay;
        ] );
    ]
