(* Membership churn: nodes crash and join while the K-nary tree's
   periodic soft-state maintenance keeps the aggregation infrastructure
   consistent, and periodic load-balancing rounds keep the load aligned
   with capacity.

   Run with: dune exec examples/churn_recovery.exe *)

module Dht = P2plb_chord.Dht
module Ktree = P2plb_ktree.Ktree
module TS = P2plb_topology.Transit_stub
module Scenario = P2plb.Scenario
module Controller = P2plb.Controller

let () =
  let config =
    {
      Scenario.default with
      n_nodes = 384;
      topology = { TS.ts5k_large with TS.mean_stub_size = 12 };
    }
  in
  let s = Scenario.build ~seed:31 config in
  let dht = s.Scenario.dht in
  let tree = Ktree.build ~k:2 dht in

  let crashes = ref 0 and joins = ref 0 and repairs = ref 0 in

  (* One integer tick per time unit.  At a shared tick the LB round
     runs first, then churn, then maintenance. *)
  for tick = 1 to 100 do
    (* A load-balancing round every 20 time units, from t = 10. *)
    if tick mod 20 = 10 then begin
      let o = Controller.run s in
      let hb, _, _ = o.Controller.census_before in
      let ha, _, _ = o.Controller.census_after in
      Printf.printf
        "t=%5.1f  LB round: heavy %4d -> %4d  (moved %4.1f%% of load, %d \
         transfers)\n"
        (float_of_int tick) hb ha
        (100.0 *. Controller.moved_fraction o)
        o.Controller.vst.P2plb.Vst.transfers
    end;
    (* Churn: every 5 time units, ~2% of nodes crash and as many join. *)
    if tick mod 5 = 0 then begin
      let batch = Int.max 1 (Dht.n_nodes dht / 50) in
      Scenario.crash_nodes s batch;
      Scenario.join_nodes s batch;
      crashes := !crashes + batch;
      joins := !joins + batch
    end;
    (* Soft-state maintenance: the KT tree re-checks its planting at
       every odd tick (paper §3.1: periodic grow/prune). *)
    if tick mod 2 = 1 then begin
      Ktree.refresh tree dht;
      incr repairs
    end
  done;
  (* The last churn batch may post-date the last maintenance tick; the
     next periodic pass is what repairs it, so run it before checking. *)
  Ktree.refresh tree dht;
  incr repairs;

  Printf.printf
    "\nafter 100 time units: %d crashes, %d joins, %d maintenance passes\n"
    !crashes !joins !repairs;
  let consistent = Ktree.check_consistent tree dht in
  (match consistent with
  | Ok () -> print_endline "KT tree structurally consistent: yes"
  | Error e -> Printf.eprintf "KT tree inconsistent: %s\n" e);
  Printf.printf "alive nodes: %d, virtual servers: %d\n" (Dht.n_nodes dht)
    (Dht.n_vs dht);
  if Result.is_error consistent then exit 1
