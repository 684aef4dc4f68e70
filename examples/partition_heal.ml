(* Network partition during load balancing: a partition episode forms
   mid-run, cross-cut PREPARE/COMMIT messages are dropped, and the
   transactional VST protocol aborts the affected transfers cleanly
   (virtual servers roll back to their heavy owners — none lost, none
   double-applied).  After the partition heals, subsequent rounds
   finish the job.  Duplication and mid-transfer crash windows are
   enabled too, so dedup and rollback both show up in the statistics.

   Run with: dune exec examples/partition_heal.exe *)

module Dht = P2plb_chord.Dht
module Faults = P2plb_sim.Faults
module Scenario = P2plb.Scenario
module Multiround = P2plb.Multiround

let () =
  let seed = 17 in
  let config = { Scenario.default with n_nodes = 256 } in
  let s = Scenario.build ~seed config in
  let dht = s.Scenario.dht in
  let total = Dht.total_load dht in

  (* A hostile mix: light churn and loss, 10% duplication, a few
     mid-transfer crash windows, and one 2-group partition episode
     lasting 2 simulated time units — long enough to straddle the
     transfer phase of a whole round. *)
  let fault_config =
    Faults.churn ~crash_fraction:0.02 ~message_loss:0.01 ~duplicate_prob:0.1
      ~transfer_crash:0.03 ~partitions:1 ~partition_groups:2
      ~partition_duration:2.0 ()
  in
  let faults = Faults.create ~seed fault_config in

  (* Assert VS conservation after every round: every virtual server is
     still owned exactly once, and none vanished beyond what the
     round's crashes can absorb. *)
  let invariants = Multiround.invariant_check ~faults ~expected_total:total dht in
  let check (r : Multiround.round) =
    let res = invariants r in
    Printf.printf
      "round %d: heavy %3d -> %3d  live %3d  %3d transfers, %2d aborted, %2d \
       deduped  [%s]\n"
      r.Multiround.index r.Multiround.heavy_before r.Multiround.heavy_after
      r.Multiround.live_nodes r.Multiround.transfers r.Multiround.aborted
      r.Multiround.deduped
      (match res with Ok () -> "invariants ok" | Error e -> e);
    res
  in

  let r = Multiround.run ~faults ~max_rounds:8 ~check s in

  Printf.printf
    "\n\
     partition episodes formed: %d (cross-cut drops: %d)\n\
     scheduled crashes: %d, mid-transfer crashes: %d\n\
     transfers aborted & rolled back: %d, duplicates deduplicated: %d\n"
    r.Multiround.partitions_formed
    (Faults.partition_drops faults)
    r.Multiround.crashes r.Multiround.transfer_crashes
    r.Multiround.total_aborted r.Multiround.total_deduped;
  Printf.printf "converged after heal: %s (final heavy %d / %d live)\n"
    (if r.Multiround.converged then "yes" else "no")
    r.Multiround.final_heavy r.Multiround.final_live;
  match r.Multiround.violation with
  | None -> print_endline "every round passed the full invariant battery"
  | Some (i, msg) ->
    Printf.eprintf "VIOLATION in round %d: %s\n" i msg;
    exit 1
