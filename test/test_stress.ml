(* Randomised whole-system stress properties: arbitrary interleavings
   of churn, object storage and balancing rounds must preserve every
   global invariant. *)

module TS = P2plb_topology.Transit_stub
module Dht = P2plb_chord.Dht
module Ktree = P2plb_ktree.Ktree
module Store = P2plb_chord.Store
module Scenario = P2plb.Scenario
module Invariants = P2plb.Invariants
module Prng = P2plb_prng.Prng
module Dist = P2plb_prng.Dist
module Id = P2plb_idspace.Id

let qtest = QCheck_alcotest.to_alcotest

let tiny_topology =
  {
    TS.ts5k_large with
    TS.transit_domains = 2;
    transit_nodes_per_domain = 2;
    stub_domains_per_transit = 2;
    mean_stub_size = 12;
  }

(* Stub-domain sizes are random; a tiny topology can occasionally end
   up with fewer stub vertices than overlay nodes — retry with a
   shifted seed until it fits. *)
let rec build seed n_nodes =
  match
    Scenario.build ~seed
      { Scenario.default with n_nodes; topology = tiny_topology }
  with
  | s -> s
  | exception Scenario.Too_few_stubs _ -> build (seed + 1009) n_nodes

(* One random action against the system. *)
type action = Crash | Join | Balance | Refresh_tree

let action_of_int = function
  | 0 -> Crash
  | 1 -> Join
  | 2 -> Balance
  | _ -> Refresh_tree

let prop_invariants_under_interleaving =
  QCheck.Test.make ~name:"invariants survive random action interleavings"
    ~count:20
    QCheck.(pair small_int (list_of_size (QCheck.Gen.int_range 1 12) (int_bound 3)))
    (fun (seed, actions) ->
      let s = build seed 64 in
      let dht = s.Scenario.dht in
      let total = Dht.total_load dht in
      let tree = ref (Ktree.build ~k:2 dht) in
      List.iter
        (fun a ->
          match action_of_int a with
          | Crash -> Scenario.crash_nodes s 3
          | Join -> Scenario.join_nodes s 3
          | Balance -> ignore (P2plb.Controller.run s)
          | Refresh_tree -> Ktree.refresh !tree dht)
        actions;
      (* the tree may be stale mid-sequence; one refresh must repair *)
      Ktree.refresh !tree dht;
      Result.is_ok (Invariants.all ~tree:!tree ~expected_total:total dht))

let prop_store_integrity_under_churn =
  QCheck.Test.make ~name:"store holders always alive after repair" ~count:15
    QCheck.(pair small_int (int_range 1 4))
    (fun (seed, churn_batches) ->
      let s = build seed 64 in
      let dht = s.Scenario.dht in
      let store = Store.create ~replication:2 () in
      let rng = Prng.create ~seed:(seed + 1) in
      for i = 0 to 199 do
        Store.insert store dht
          ~key:(Id.hash_key i "stress")
          ~size:(Prng.float rng 5.0)
      done;
      for _ = 1 to churn_batches do
        Scenario.crash_nodes s 5;
        Scenario.join_nodes s 5;
        ignore (Store.repair store dht)
      done;
      (* every remaining holder must be alive *)
      let ok = ref true in
      for i = 0 to 199 do
        List.iter
          (List.iter (fun n -> if not (Dht.is_alive dht n) then ok := false))
          (Store.holders store ~key:(Id.hash_key i "stress"))
      done;
      !ok && Store.availability store dht = 1.0)

let prop_balance_is_idempotent_on_balanced_network =
  QCheck.Test.make ~name:"balancing a balanced network is a no-op" ~count:10
    QCheck.small_int
    (fun seed ->
      let s = build seed 96 in
      ignore (P2plb.Multiround.run s);
      let o = P2plb.Controller.run s in
      o.P2plb.Controller.vst.P2plb.Vst.transfers = 0
      ||
      (* allow stragglers only when something was genuinely heavy *)
      let hb, _, _ = o.P2plb.Controller.census_before in
      hb > 0)

(* A seeded object workload: publishes [n] objects keyed [first ..
   first + n - 1], each an exponential size scaled down by its Zipf
   popularity rank (as in examples/storage_cluster.ml), then sets every
   VS's load to the bytes it primarily stores. *)
let publish rng store dht ~first ~n =
  for i = first to first + n - 1 do
    let size = Dist.exponential rng ~mean:4.0 in
    let rank = Dist.zipf rng ~n:1000 ~s:0.9 in
    Store.insert store dht
      ~key:(Id.hash_key i "trace-obj")
      ~size:(size /. float_of_int rank)
  done;
  Store.apply_primary_loads store dht

let prop_trace_store_load_coherence =
  QCheck.Test.make ~name:"trace, store and DHT loads stay coherent" ~count:10
    QCheck.small_int
    (fun seed ->
      let s = build seed 64 in
      let dht = s.Scenario.dht in
      let store = Store.create ~replication:2 () in
      let rng = Prng.create ~seed:(seed + 2) in
      let ok = ref true in
      for e = 1 to 4 do
        publish rng store dht ~first:((e - 1) * 200) ~n:200;
        if Store.n_objects store <> e * 200 then ok := false;
        if abs_float (Dht.total_load dht -. Store.total_bytes store) > 1e-6
        then ok := false;
        ignore (P2plb.Controller.run s);
        (* balancing moves VSs, not objects out of the system *)
        if abs_float (Dht.total_load dht -. Store.total_bytes store) > 1e-6
        then ok := false
      done;
      !ok)

let prop_deterministic_outcomes =
  QCheck.Test.make ~name:"same seed, same outcome" ~count:8 QCheck.small_int
    (fun seed ->
      let run () =
        let s = build seed 96 in
        let o = P2plb.Controller.run s in
        ( o.P2plb.Controller.census_before,
          o.P2plb.Controller.census_after,
          o.P2plb.Controller.vst.P2plb.Vst.transfers,
          o.P2plb.Controller.vst.P2plb.Vst.moved_load )
      in
      run () = run ())

let () =
  Alcotest.run "stress"
    [
      ( "properties",
        [
          qtest prop_invariants_under_interleaving;
          qtest prop_store_integrity_under_churn;
          qtest prop_balance_is_idempotent_on_balanced_network;
          qtest prop_trace_store_load_coherence;
          qtest prop_deterministic_outcomes;
        ] );
    ]
