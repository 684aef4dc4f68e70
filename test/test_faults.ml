module Dht = P2plb_chord.Dht
module Ktree = P2plb_ktree.Ktree
module Faults = P2plb_sim.Faults
module Scenario = P2plb.Scenario
module Controller = P2plb.Controller
module Multiround = P2plb.Multiround
module Lbi = P2plb.Lbi
module Invariants = P2plb.Invariants
module Types = P2plb.Types
module Vst = P2plb.Vst
module Obs = P2plb_obs.Obs
module Trace = P2plb_obs.Trace
module Spantree = P2plb_obs.Spantree

let check = Alcotest.check

let close ?(tol = 1e-6) msg a b =
  check Alcotest.bool msg true
    (abs_float (a -. b) <= tol *. Float.max 1.0 (abs_float a))

let small_config n_nodes = { Scenario.default with Scenario.n_nodes }

(* Kill the physical node hosting an interior KT node between sweeps:
   repair must re-plant the orphans, restore the structural
   invariants, and the next LBI sweep must aggregate exactly the live
   population's load and capacity. *)
let test_kt_repair_after_host_death () =
  let s = Scenario.build ~seed:7 (small_config 128) in
  let dht = s.Scenario.dht in
  let tree = Ktree.build ~k:2 dht in
  let interior =
    Ktree.fold_nodes tree ~init:None ~f:(fun acc n ->
        match acc with
        | Some _ -> acc
        | None ->
          if Ktree.is_leaf tree n then None else Some n)
  in
  let n = Option.get interior in
  let owner = (Option.get (Dht.vs_of_id dht (Ktree.host tree n))).Dht.owner in
  Dht.crash dht owner;
  let repaired = Ktree.repair tree dht in
  check Alcotest.bool "orphaned KT nodes re-planted" true (repaired > 0);
  check Alcotest.int "repair counter matches" repaired (Ktree.repairs tree);
  check Alcotest.bool "repair messages charged" true
    (Ktree.repair_messages tree > 0);
  (match Ktree.check_consistent tree dht with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("tree inconsistent after repair: " ^ e));
  (* a healthy tree repairs for free *)
  check Alcotest.int "second repair is a no-op" 0 (Ktree.repair tree dht);
  let lbi = Lbi.run ~rng:s.Scenario.rng tree dht in
  let live_load =
    Dht.fold_nodes dht ~init:0.0 ~f:(fun a n -> a +. Dht.node_load n)
  in
  let live_cap =
    Dht.fold_nodes dht ~init:0.0 ~f:(fun a n -> a +. n.Dht.capacity)
  in
  close "LBI load = live-node sum" live_load lbi.Types.l;
  close "LBI capacity = live-node sum" live_cap lbi.Types.c;
  match Invariants.all ~tree dht with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("invariants after repair: " ^ e)

(* A disabled fault plan, even armed, must not perturb the round at
   all: every statistic matches the plain run exactly. *)
let test_disabled_faults_zero_overhead () =
  let o1 = Controller.run (Scenario.build ~seed:3 (small_config 128)) in
  let faults = Faults.create ~seed:5 Faults.none in
  Faults.arm faults ~start:0.0 ~horizon:1.0 ~population:128
    ~crash:(fun ~rank:_ -> Alcotest.fail "a disabled plan crashed a node");
  let o2 =
    Controller.run ~faults (Scenario.build ~seed:3 (small_config 128))
  in
  check Alcotest.bool "lbi identical" true (o1.Controller.lbi = o2.Controller.lbi);
  check Alcotest.bool "census before identical" true
    (o1.Controller.census_before = o2.Controller.census_before);
  check Alcotest.bool "census after identical" true
    (o1.Controller.census_after = o2.Controller.census_after);
  check Alcotest.bool "unit loads identical" true
    (o1.Controller.unit_loads_after = o2.Controller.unit_loads_after);
  check (Alcotest.float 0.0) "moved load identical"
    o1.Controller.vst.P2plb.Vst.moved_load o2.Controller.vst.P2plb.Vst.moved_load;
  check Alcotest.int "transfers identical" o1.Controller.vst.P2plb.Vst.transfers
    o2.Controller.vst.P2plb.Vst.transfers;
  check Alcotest.int "tree messages identical" o1.Controller.tree_messages
    o2.Controller.tree_messages;
  check Alcotest.int "no retries" 0 o2.Controller.retries;
  check Alcotest.int "no timeouts" 0 o2.Controller.timeouts;
  check Alcotest.int "no repairs" 0 o2.Controller.kt_repairs;
  check Alcotest.int "no repair messages" 0 o2.Controller.kt_repair_messages;
  check Alcotest.int "no crashes" 0 (Faults.crashes faults);
  check Alcotest.int "no skips" 0 o2.Controller.vst.P2plb.Vst.skipped;
  check Alcotest.int "no stale records" 0 o2.Controller.vsa.P2plb.Vsa.stale_dropped

(* Multiround under the standard churn plan: crashes fire mid-round,
   yet the system converges on the survivors and every invariant holds
   (including that dead nodes hold neither VSs nor load). *)
let test_convergence_under_churn () =
  let s = Scenario.build ~seed:1 (small_config 256) in
  let dht = s.Scenario.dht in
  let total = Dht.total_load dht in
  let faults = Faults.create ~seed:1 (Faults.churn ()) in
  let r = Multiround.run ~faults ~max_rounds:3 s in
  check Alcotest.bool "crashes fired" true (r.Multiround.crashes > 0);
  check Alcotest.bool "population shrank" true
    (r.Multiround.final_live < 256 && r.Multiround.final_live > 0);
  check Alcotest.bool "KT repaired" true (r.Multiround.total_repairs > 0);
  let heavy_frac =
    float_of_int r.Multiround.final_heavy
    /. float_of_int r.Multiround.final_live
  in
  check Alcotest.bool "<=10% of survivors heavy" true (heavy_frac <= 0.10);
  (match Invariants.all ~expected_total:total dht with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("invariants under churn: " ^ e));
  match Invariants.dead_detached dht with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* The whole churn experiment replays bit-identically from the seed. *)
let test_churn_replay_determinism () =
  let once () =
    let s = Scenario.build ~seed:11 (small_config 256) in
    let faults = Faults.create ~seed:11 (Faults.churn ~message_loss:0.02 ()) in
    Multiround.run ~faults ~max_rounds:4 s
  in
  let r1 = once () and r2 = once () in
  check Alcotest.bool "round-by-round stats identical" true
    (r1.Multiround.rounds = r2.Multiround.rounds);
  check (Alcotest.float 0.0) "moved load identical" r1.Multiround.total_moved
    r2.Multiround.total_moved;
  check Alcotest.int "crashes identical" r1.Multiround.crashes
    r2.Multiround.crashes;
  check Alcotest.int "retries identical" r1.Multiround.total_retries
    r2.Multiround.total_retries

(* Message loss without crashes: the retry layer absorbs it — reports
   get through or are counted, and the round still balances. *)
let test_loss_only_round () =
  let s = Scenario.build ~seed:2 (small_config 256) in
  let faults =
    Faults.create ~seed:2
      (Faults.churn ~crash_fraction:0.0 ~message_loss:0.05 ())
  in
  let o = Controller.run ~faults s in
  check Alcotest.bool "retries happened" true (o.Controller.retries > 0);
  check Alcotest.int "no crashes without a schedule" 0 (Faults.crashes faults);
  let hb, _, _ = o.Controller.census_before in
  let ha, _, _ = o.Controller.census_after in
  check Alcotest.bool "balancing still effective" true
    (ha < hb / 4);
  match Invariants.all s.Scenario.dht with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* ---- crash/partition schedule determinism ------------------------------- *)

(* The armed schedule replays exactly — same fire times, same ranks —
   even as the receiving population shrinks with every crash (the rank
   indexes whatever is alive at fire time). *)
let test_arm_schedule_determinism () =
  let run () =
    let f =
      Faults.create ~seed:21
        (Faults.churn ~crash_fraction:0.2 ~partitions:2
           ~partition_duration:0.5 ())
    in
    let events = ref [] in
    let alive = ref 100 in
    Faults.arm f ~start:0.0 ~horizon:3.0 ~population:100 ~crash:(fun ~rank ->
        let idx = int_of_float (rank *. float_of_int !alive) in
        decr alive;
        events := (Option.get (Faults.clock f), idx) :: !events);
    ignore (Faults.fire_until f ~time:5.0);
    (List.rev !events, Faults.crashes f, Faults.partitions_formed f)
  in
  let e1, c1, p1 = run () in
  let e2, c2, p2 = run () in
  check Alcotest.bool "fire times and ranks identical" true (e1 = e2);
  check Alcotest.int "crash count identical" c1 c2;
  check Alcotest.bool "crashes fired" true (c1 > 0);
  check Alcotest.int "partition count identical" p1 p2;
  check Alcotest.int "both episodes formed" 2 p1

(* ---- partition cut and heal --------------------------------------------- *)

let test_partition_cut_and_heal () =
  let f =
    Faults.create ~seed:8
      (Faults.churn ~crash_fraction:0.0 ~message_loss:0.0 ~partitions:1
         ~partition_groups:2 ~partition_duration:0.4 ())
  in
  Faults.arm f ~start:0.0 ~horizon:2.0 ~population:64
    ~crash:(fun ~rank:_ -> ());
  check Alcotest.bool "no partition before start" false
    (Faults.partition_active f);
  let saw_cut = ref false and saw_drop = ref false and saw_through = ref false in
  let t = ref 0.0 in
  while !t < 3.0 do
    t := !t +. 0.05;
    ignore (Faults.fire_until f ~time:!t);
    if Faults.partition_active f && not !saw_cut then begin
      (* with 2 groups over 64 ids both sides are inhabited: some pair
         is cut, some pair is not *)
      for a = 0 to 63 do
        for b = a + 1 to 63 do
          if Faults.cut f ~a ~b && not !saw_cut then begin
            saw_cut := true;
            match Faults.send_between f ~src:a ~dst:b with
            | Faults.Lost -> saw_drop := true
            | Faults.Delivered _ -> ()
          end
          else if (not (Faults.cut f ~a ~b)) && not !saw_through then begin
            match Faults.send_between f ~src:a ~dst:b with
            | Faults.Delivered _ -> saw_through := true
            | Faults.Lost -> ()
          end
        done
      done
    end
  done;
  check Alcotest.int "exactly one episode formed" 1 (Faults.partitions_formed f);
  check Alcotest.bool "a cross-cut pair exists while active" true !saw_cut;
  check Alcotest.bool "cross-cut send dropped" true !saw_drop;
  check Alcotest.bool "same-side send delivered" true !saw_through;
  check Alcotest.bool "drop counted as partition drop" true
    (Faults.partition_drops f > 0);
  check Alcotest.bool "healed after duration" false (Faults.partition_active f)

(* ---- transactional transfer protocol ------------------------------------ *)

(* Heavy duplication: replayed TRANSFERs are recognised by sequence
   number and dropped; the round still balances and no VS is lost or
   double-applied. *)
let test_duplicate_dedup_conserves_vs () =
  let s = Scenario.build ~seed:13 (small_config 128) in
  let dht = s.Scenario.dht in
  let before = Invariants.vs_snapshot dht in
  let total = Dht.total_load dht in
  let faults =
    Faults.create ~seed:13
      (Faults.churn ~crash_fraction:0.0 ~message_loss:0.0 ~duplicate_prob:0.9
         ())
  in
  let o = Controller.run ~faults s in
  let v = o.Controller.vst in
  check Alcotest.bool "transfers committed" true (v.Vst.transfers > 0);
  check Alcotest.bool "duplicates deduplicated" true (v.Vst.deduped > 0);
  check Alcotest.int "dedup counter matches the plan's" v.Vst.deduped
    (Faults.duplicates faults);
  check Alcotest.int "nothing aborted without loss or crashes" 0 v.Vst.aborted;
  match Invariants.all ~expected_total:total ~vs_before:before ~crashes:0 dht with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("VS conservation under duplication: " ^ e)

(* A duplicated TRANSFER reaches the light node's handler twice and
   the (vs, seq) table must drop the replay.  Were it installed, the
   light node would acknowledge it a second time and the transfer
   would commit twice: counted twice in [transfers] and [moved_load]. *)
let test_duplicate_transfer_applied_once () =
  let dht = Dht.create ~seed:3 in
  let ids =
    Array.init 8 (fun _ -> Dht.join dht ~capacity:1.0 ~underlay:0 ~n_vs:2)
  in
  Dht.fold_vs dht ~init:1.0 ~f:(fun l v ->
      Dht.set_vs_load dht v l;
      l +. 1.0)
  |> ignore;
  let assignments =
    Array.to_list
      (Array.mapi
         (fun i id ->
           let v = List.hd (Dht.node dht id).Dht.vss in
           {
             Types.a_vs = v;
             a_load = v.Dht.load;
             a_from = id;
             a_to = ids.((i + 1) mod Array.length ids);
             a_depth = 0;
           })
         ids)
  in
  let faults =
    Faults.create ~seed:3
      (Faults.churn ~crash_fraction:0.0 ~message_loss:0.0 ~duplicate_prob:0.9
         ())
  in
  let r = Vst.apply ~faults dht assignments in
  check Alcotest.bool "some TRANSFERs duplicated" true
    (Faults.duplicates faults > 0);
  check Alcotest.int "every replay dropped" (Faults.duplicates faults)
    r.Vst.deduped;
  check Alcotest.int "each transfer committed once"
    (List.length assignments) r.Vst.transfers;
  close "moved load counted once"
    (List.fold_left (fun acc a -> acc +. a.Types.a_load) 0.0 assignments)
    r.Vst.moved_load;
  List.iter
    (fun (a : Types.assignment) ->
      match Dht.vs_of_id dht a.a_vs.Dht.vs_id with
      | Some v -> check Alcotest.int "VS at its target" a.a_to v.Dht.owner
      | None -> Alcotest.fail "VS lost")
    assignments

(* Mid-transfer crash windows on nearly every transaction: aborts are
   attributed per cause, rollbacks leave every surviving VS exactly
   once, and crash absorption accounts for the disappearances. *)
let test_transfer_crash_rollback () =
  let s = Scenario.build ~seed:17 (small_config 128) in
  let dht = s.Scenario.dht in
  let before = Invariants.vs_snapshot dht in
  let total = Dht.total_load dht in
  let faults =
    Faults.create ~seed:17
      (Faults.churn ~crash_fraction:0.0 ~message_loss:0.0 ~transfer_crash:0.9
         ())
  in
  let o = Controller.run ~faults s in
  let v = o.Controller.vst in
  check Alcotest.bool "transactions aborted" true (v.Vst.aborted > 0);
  check Alcotest.int "per-cause counters sum to aborted" v.Vst.aborted
    (v.Vst.aborted_prepare_lost + v.Vst.aborted_partitioned
   + v.Vst.aborted_src_crashed + v.Vst.aborted_dest_crashed
   + v.Vst.aborted_commit_lost);
  check Alcotest.bool "endpoint crashes injected" true
    (Faults.transfer_crashes faults > 0);
  check Alcotest.int "vst saw only window crashes"
    (Faults.transfer_crashes faults)
    (v.Vst.aborted_src_crashed + v.Vst.aborted_dest_crashed);
  match
    Invariants.all ~expected_total:total ~vs_before:before
      ~crashes:(Faults.transfer_crashes faults)
      dht
  with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("VS conservation under window crashes: " ^ e)

(* Loss without any transfer fault still runs the protocol: PREPARE
   and COMMIT draw from the loss stream like every other message, so
   some transactions abort, and each abort leaves its VS exactly once
   at home. *)
let test_loss_only_aborts_conserve_vs () =
  let s = Scenario.build ~seed:19 (small_config 128) in
  let dht = s.Scenario.dht in
  let before = Invariants.vs_snapshot dht in
  let total = Dht.total_load dht in
  let faults =
    Faults.create ~seed:19
      (Faults.churn ~crash_fraction:0.0 ~message_loss:0.6 ())
  in
  let o = Controller.run ~faults s in
  let v = o.Controller.vst in
  check Alcotest.bool "lost PREPAREs or COMMITs abort" true
    (v.Vst.aborted_prepare_lost + v.Vst.aborted_commit_lost > 0);
  match Invariants.all ~expected_total:total ~vs_before:before ~crashes:0 dht with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("VS conservation under loss: " ^ e)

(* Every skip and abort cause of VST, each reached on purpose: a
   counter must be positive and equal the number of vst/skip or
   vst/abort trace points tagged with its cause.  Hand-built
   assignments give the skips; loss, a partition cut and mid-window
   crashes give the aborts. *)
let test_every_vst_cause () =
  let ring () =
    let dht = Dht.create ~seed:5 in
    let ids =
      Array.init 32 (fun _ -> Dht.join dht ~capacity:1.0 ~underlay:0 ~n_vs:2)
    in
    (dht, ids)
  in
  let first_vs dht id = List.hd (Dht.node dht id).Dht.vss in
  let assign v ~from ~to_ =
    { Types.a_vs = v; a_load = 0.0; a_from = from; a_to = to_; a_depth = 0 }
  in
  (* The handles are read before the churn, which takes [gone] off the
     ring. *)
  let skips obs =
    let dht, ids = ring () in
    let gone = first_vs dht ids.(0) in
    let v1 = first_vs dht ids.(1) and v2 = first_vs dht ids.(2) in
    Dht.remove_vs dht gone;
    Dht.crash dht ids.(3);
    Vst.apply ~obs dht
      [
        assign gone ~from:ids.(0) ~to_:ids.(1);
        assign v1 ~from:ids.(2) ~to_:ids.(0);
        assign v2 ~from:ids.(2) ~to_:ids.(3);
      ]
  in
  (* each node's first VS to the next node, under [config] *)
  let faulty ?(cut = false) config obs =
    let dht, ids = ring () in
    let f = Faults.create ~seed:7 config in
    if cut then begin
      Faults.arm f ~start:0.0 ~horizon:1.0 ~population:(Array.length ids)
        ~crash:(fun ~rank:_ -> ());
      let t = ref 0.0 in
      while (not (Faults.partition_active f)) && !t < 1.0 do
        t := !t +. 0.01;
        ignore (Faults.fire_until f ~time:!t)
      done
    end;
    let n = Array.length ids in
    Vst.apply ~obs ~faults:f dht
      (List.init n (fun i ->
           assign (first_vs dht ids.(i)) ~from:ids.(i) ~to_:ids.((i + 1) mod n)))
  in
  let quiet = Faults.churn ~crash_fraction:0.0 ~message_loss:0.0 in
  let loss = faulty (Faults.churn ~crash_fraction:0.0 ~message_loss:0.8 ()) in
  let cut =
    faulty ~cut:true (quiet ~partitions:1 ~partition_duration:10.0 ())
  in
  let window = faulty (quiet ~transfer_crash:0.9 ()) in
  List.iter
    (fun (cause, run, count) ->
      let obs = Obs.create () in
      let r = run obs in
      let tagged (ev : Trace.ev) =
        (String.equal ev.name "vst/skip" || String.equal ev.name "vst/abort")
        && List.exists
             (function
               | "cause", Trace.Str c -> String.equal c cause | _ -> false)
             ev.attrs
      in
      let points =
        List.length (List.filter tagged (Trace.events (Obs.trace obs)))
      in
      check Alcotest.bool (cause ^ " reached") true (count r > 0);
      check Alcotest.int (cause ^ " counter = trace points") points (count r);
      check Alcotest.int "skipped is the sum of its causes" r.Vst.skipped
        (r.Vst.skipped_vs_gone + r.Vst.skipped_owner_changed
       + r.Vst.skipped_dest_dead);
      check Alcotest.int "aborted is the sum of its causes" r.Vst.aborted
        (r.Vst.aborted_prepare_lost + r.Vst.aborted_partitioned
       + r.Vst.aborted_src_crashed + r.Vst.aborted_dest_crashed
       + r.Vst.aborted_commit_lost))
    [
      ("vs_gone", skips, fun r -> r.Vst.skipped_vs_gone);
      ("owner_changed", skips, fun r -> r.Vst.skipped_owner_changed);
      ("dest_dead", skips, fun r -> r.Vst.skipped_dest_dead);
      ("prepare_lost", loss, fun r -> r.Vst.aborted_prepare_lost);
      ("commit_lost", loss, fun r -> r.Vst.aborted_commit_lost);
      ("partitioned", cut, fun r -> r.Vst.aborted_partitioned);
      ("src_crashed", window, fun r -> r.Vst.aborted_src_crashed);
      ("dest_crashed", window, fun r -> r.Vst.aborted_dest_crashed);
    ]

(* ---- no-perturbation digest pins ---------------------------------------- *)

(* Observability digests of a balancing run: a run given no plan runs
   under a fresh quiet one, and a caller's zero-rate plan of another
   seed must produce exactly its bytes.  If a pin moves, the trace or
   its totals view changed and the pins must be re-recorded
   deliberately. *)
let pin label expected_trace expected_metrics f =
  let obs = Obs.create () in
  f obs;
  check Alcotest.string (label ^ ": trace digest pinned") expected_trace
    (Trace.digest (Obs.trace obs));
  check Alcotest.string (label ^ ": metrics digest pinned") expected_metrics
    (Digest.to_hex
       (Digest.string
          (Spantree.dump_totals (Spantree.of_run (Obs.trace obs)))))

let test_no_perturbation_digest_pins () =
  pin "zero-fault" "310aa2f48374f573228194d2ce406933"
    "6697bd9c730dc3ad918aaeed50cd80d6" (fun obs ->
      let s = Scenario.build ~seed:3 (small_config 128) in
      ignore (Multiround.run ~obs ~max_rounds:3 s));
  pin "zero-config plan attached" "310aa2f48374f573228194d2ce406933"
    "6697bd9c730dc3ad918aaeed50cd80d6" (fun obs ->
      let s = Scenario.build ~seed:3 (small_config 128) in
      let faults = Faults.create ~seed:5 Faults.none in
      ignore (Multiround.run ~faults ~obs ~max_rounds:3 s));
  pin "churn plan" "175303918ec384317814c34e10e57ac6"
    "8e5afd0b71084e0716d64b9160a38305" (fun obs ->
      let s = Scenario.build ~seed:11 (small_config 128) in
      let faults =
        Faults.create ~seed:11 (Faults.churn ~message_loss:0.02 ())
      in
      ignore (Multiround.run ~faults ~obs ~max_rounds:3 s))

(* ---- one round clock ---------------------------------------------------- *)

(* Every round spans one unit of simulated time, armed or not.  An
   armed run arms its plan at the traced clock, so after an unarmed run
   on the same bundle the trace's time never decreases, and no span
   begins after one of its children or after its own end. *)
let test_round_clock_after_unarmed_run () =
  let obs = Obs.create () in
  ignore
    (Multiround.run ~obs ~max_rounds:3
       (Scenario.build ~seed:3 (small_config 128)));
  let faults = Faults.create ~seed:11 (Faults.churn ~message_loss:0.02 ()) in
  ignore
    (Multiround.run ~faults ~obs ~max_rounds:3
       (Scenario.build ~seed:11 (small_config 128)));
  let events = Trace.events (Obs.trace obs) in
  ignore
    (List.fold_left
       (fun prev (e : Trace.ev) ->
         if e.time < prev then
           Alcotest.failf "time falls %g -> %g at seq %d" prev e.time e.seq;
         e.time)
       neg_infinity events);
  match Spantree.of_events events with
  | Error e -> Alcotest.fail e
  | Ok t ->
    let rounds = ref 0 in
    let rec walk (n : Spantree.node) =
      let label what = Printf.sprintf "%s %d %s" n.nd_name n.nd_id what in
      check Alcotest.bool (label "begins by its end") true
        (n.nd_t0 <= n.nd_t1);
      List.iter
        (fun (c : Spantree.node) ->
          check Alcotest.bool (label "begins by its children") true
            (n.nd_t0 <= c.nd_t0);
          walk c)
        n.nd_children;
      if String.equal n.nd_name "round" then begin
        incr rounds;
        check (Alcotest.float 0.0) (label "extent") 1.0 (Spantree.extent n)
      end
    in
    List.iter walk t.Spantree.roots;
    check Alcotest.bool "both runs traced" true (!rounds >= 4)

(* ---- fault-plan replay ---------------------------------------------- *)

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
  (* 10,000 rounds of the three sends on a quiet plan allocate no minor
     words and leave its loss stream where a fresh plan of the same seed
     has it.  The allocation check alone misses a draw that allocates
     nothing, such as [Prng.bernoulli]. *)
  let quiet = Faults.create ~seed:7 Faults.none in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Faults.send quiet);
    ignore (Faults.deliver quiet);
    ignore (Faults.send_between quiet ~src:0 ~dst:1)
  done;
  check (Alcotest.float 0.0) "quiet sends allocate nothing" 0.0
    (Gc.minor_words () -. w0);
  let next f = P2plb_prng.Prng.bits64 (Faults.loss_stream f) in
  check Alcotest.int64 "quiet sends draw nothing"
    (next (Faults.create ~seed:7 Faults.none))
    (next quiet);
  (* interleave: a drains sends; b drains the same number; equal tails *)
  let drain f n = List.init n (fun _ -> Faults.deliver f) in
  check
    Alcotest.(list bool)
    "lossy streams agree pairwise" (drain a 500) (drain b 500)

let () =
  Alcotest.run "faults_integration"
    [
      ( "faults",
        [
          Alcotest.test_case "replay determinism" `Quick
            test_replay_determinism;
          Alcotest.test_case "zero loss draws nothing" `Quick
            test_zero_loss_draws_nothing;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "KT repair after host death" `Quick
            test_kt_repair_after_host_death;
          Alcotest.test_case "disabled faults: zero overhead" `Quick
            test_disabled_faults_zero_overhead;
          Alcotest.test_case "convergence under churn" `Quick
            test_convergence_under_churn;
          Alcotest.test_case "churn replay determinism" `Quick
            test_churn_replay_determinism;
          Alcotest.test_case "loss-only round" `Quick test_loss_only_round;
        ] );
      ( "network faults",
        [
          Alcotest.test_case "armed schedules replay exactly" `Quick
            test_arm_schedule_determinism;
          Alcotest.test_case "partition cut and heal" `Quick
            test_partition_cut_and_heal;
          Alcotest.test_case "round clock after an unarmed run" `Quick
            test_round_clock_after_unarmed_run;
        ] );
      ( "transfer protocol",
        [
          Alcotest.test_case "duplication deduped, VS conserved" `Quick
            test_duplicate_dedup_conserves_vs;
          Alcotest.test_case "window crashes roll back cleanly" `Quick
            test_transfer_crash_rollback;
          Alcotest.test_case "loss-only aborts conserve VSs" `Quick
            test_loss_only_aborts_conserve_vs;
          Alcotest.test_case "zero-config digests pinned" `Quick
            test_no_perturbation_digest_pins;
          Alcotest.test_case "duplicated TRANSFER applied once" `Quick
            test_duplicate_transfer_applied_once;
          Alcotest.test_case "every skip and abort cause counted" `Quick
            test_every_vst_cause;
        ] );
    ]
