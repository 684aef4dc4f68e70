(* Unit tests of the VSA phase itself: rendezvous threshold behaviour,
   mode differences, and accounting invariants. *)

module TS = P2plb_topology.Transit_stub
module Dht = P2plb_chord.Dht
module Ktree = P2plb_ktree.Ktree
module Hilbert = P2plb_hilbert.Hilbert
module Landmark = P2plb_landmark.Landmark
module Scenario = P2plb.Scenario
module Vsa = P2plb.Vsa
module Lbi = P2plb.Lbi
module Pairing = P2plb.Pairing
module Types = P2plb.Types

let check = Alcotest.check

let small_config =
  {
    Scenario.default with
    n_nodes = 200;
    topology =
      {
        TS.ts5k_large with
        TS.transit_domains = 3;
        transit_nodes_per_domain = 2;
        stub_domains_per_transit = 3;
        mean_stub_size = 15;
      };
  }

let setup ?(seed = 1) () =
  let s = Scenario.build ~seed small_config in
  let tree = Ktree.build ~k:2 s.Scenario.dht in
  let lbi = Lbi.run ~rng:s.Scenario.rng tree s.Scenario.dht in
  (s, tree, lbi)

let epsilon lbi = 0.05 *. lbi.Types.l /. lbi.Types.c

let aware_mode (s : Scenario.t) =
  Vsa.Aware
    {
      space = s.Scenario.space;
      order = 2;
      curve = Hilbert.Hilbert;
      binning = Landmark.Equal_width;
    }

let test_census_sums_to_n () =
  let s, tree, lbi = setup () in
  let r =
    Vsa.run ~epsilon:(epsilon lbi) ~mode:Vsa.Ignorant ~rng:s.Scenario.rng ~lbi
      tree s.Scenario.dht
  in
  check Alcotest.int "census covers all nodes"
    (Dht.n_nodes s.Scenario.dht)
    (r.Vsa.n_heavy + r.Vsa.n_light + r.Vsa.n_neutral)

let test_offered_conservation () =
  let s, tree, lbi = setup () in
  let r =
    Vsa.run ~epsilon:(epsilon lbi) ~mode:Vsa.Ignorant ~rng:s.Scenario.rng ~lbi
      tree s.Scenario.dht
  in
  check Alcotest.int "assigned + unassigned = offered" r.Vsa.shed_offered
    (List.length r.Vsa.assignments + Pairing.n_shed r.Vsa.unassigned)

let test_direct_messages_two_per_assignment () =
  let s, tree, lbi = setup () in
  let r =
    Vsa.run ~epsilon:(epsilon lbi) ~mode:Vsa.Ignorant ~rng:s.Scenario.rng ~lbi
      tree s.Scenario.dht
  in
  check Alcotest.int "2 notifications per pair"
    (2 * List.length r.Vsa.assignments)
    r.Vsa.direct_messages

let test_ignorant_has_no_publish_hops () =
  let s, tree, lbi = setup () in
  let r =
    Vsa.run ~epsilon:(epsilon lbi) ~mode:Vsa.Ignorant ~rng:s.Scenario.rng ~lbi
      tree s.Scenario.dht
  in
  check Alcotest.int "no publication in ignorant mode" 0 r.Vsa.publish_hops

let test_aware_publishes_and_clears () =
  let s, tree, lbi = setup () in
  let dht = s.Scenario.dht in
  let r =
    Vsa.run ~epsilon:(epsilon lbi) ~mode:(aware_mode s) ~rng:s.Scenario.rng
      ~lbi tree dht
  in
  check Alcotest.bool "publication costs hops" true (r.Vsa.publish_hops > 0);
  (* the DHT storage is cleared after collection *)
  let leftovers =
    Dht.fold_vs dht ~init:0 ~f:(fun acc v ->
        acc + List.length (Dht.items_in_region dht (Dht.region_of_vs dht v)))
  in
  check Alcotest.int "records cleared" 0 leftovers

let test_huge_threshold_pairs_only_at_root () =
  let s, tree, lbi = setup () in
  let r =
    Vsa.run ~threshold:max_int ~epsilon:(epsilon lbi) ~mode:Vsa.Ignorant
      ~rng:s.Scenario.rng ~lbi tree s.Scenario.dht
  in
  check Alcotest.bool "assignments exist" true (r.Vsa.assignments <> []);
  List.iter
    (fun (a : Types.assignment) ->
      check Alcotest.int "all pairs made at the root" 0 a.Types.a_depth)
    r.Vsa.assignments

let test_low_threshold_pairs_deeper () =
  let s1, tree1, lbi1 = setup () in
  let low =
    Vsa.run ~threshold:2 ~epsilon:(epsilon lbi1) ~mode:(aware_mode s1)
      ~rng:s1.Scenario.rng ~lbi:lbi1 tree1 s1.Scenario.dht
  in
  let s2, tree2, lbi2 = setup () in
  let high =
    Vsa.run ~threshold:max_int ~epsilon:(epsilon lbi2) ~mode:(aware_mode s2)
      ~rng:s2.Scenario.rng ~lbi:lbi2 tree2 s2.Scenario.dht
  in
  let mean_depth r =
    let ds = List.map (fun a -> a.Types.a_depth) r.Vsa.assignments in
    float_of_int (List.fold_left ( + ) 0 ds)
    /. float_of_int (Int.max 1 (List.length ds))
  in
  check Alcotest.bool "low threshold pairs deeper in the tree" true
    (mean_depth low > mean_depth high)

let test_assignments_reference_real_vss () =
  let s, tree, lbi = setup () in
  let dht = s.Scenario.dht in
  let r =
    Vsa.run ~epsilon:(epsilon lbi) ~mode:(aware_mode s) ~rng:s.Scenario.rng
      ~lbi tree dht
  in
  List.iter
    (fun (a : Types.assignment) ->
      match Dht.vs_of_id dht a.Types.a_vs.Dht.vs_id with
      | None -> Alcotest.fail "assignment references unknown VS"
      | Some v ->
        check Alcotest.int "VS owned by the heavy node" a.Types.a_from
          v.Dht.owner;
        check Alcotest.bool "handle is the ring's record" true
          (v == a.Types.a_vs);
        check Alcotest.bool "target alive" true (Dht.is_alive dht a.Types.a_to))
    r.Vsa.assignments

let test_higher_epsilon_fewer_heavy () =
  let s1, tree1, lbi1 = setup () in
  let tight =
    Vsa.run ~epsilon:0.0 ~mode:Vsa.Ignorant ~rng:s1.Scenario.rng ~lbi:lbi1
      tree1 s1.Scenario.dht
  in
  let s2, tree2, lbi2 = setup () in
  let loose =
    Vsa.run
      ~epsilon:(10.0 *. lbi2.Types.l /. lbi2.Types.c)
      ~mode:Vsa.Ignorant ~rng:s2.Scenario.rng ~lbi:lbi2 tree2 s2.Scenario.dht
  in
  check Alcotest.bool "bigger slack classifies fewer heavy" true
    (loose.Vsa.n_heavy < tight.Vsa.n_heavy)

let test_vsa_does_not_move_load () =
  (* VSA only decides; VST moves.  The DHT must be untouched. *)
  let s, tree, lbi = setup () in
  let dht = s.Scenario.dht in
  let before =
    Dht.fold_vs dht ~init:[] ~f:(fun acc v -> (v.Dht.vs_id, v.Dht.owner) :: acc)
  in
  ignore
    (Vsa.run ~epsilon:(epsilon lbi) ~mode:(aware_mode s) ~rng:s.Scenario.rng
       ~lbi tree dht);
  let after =
    Dht.fold_vs dht ~init:[] ~f:(fun acc v -> (v.Dht.vs_id, v.Dht.owner) :: acc)
  in
  check Alcotest.bool "ownership unchanged by VSA" true (before = after)

let () =
  Alcotest.run "vsa"
    [
      ( "accounting",
        [
          Alcotest.test_case "census sums" `Quick test_census_sums_to_n;
          Alcotest.test_case "offered conservation" `Quick
            test_offered_conservation;
          Alcotest.test_case "direct messages" `Quick
            test_direct_messages_two_per_assignment;
          Alcotest.test_case "ignorant: no publish" `Quick
            test_ignorant_has_no_publish_hops;
          Alcotest.test_case "aware: publish+clear" `Quick
            test_aware_publishes_and_clears;
        ] );
      ( "behaviour",
        [
          Alcotest.test_case "threshold=inf -> root only" `Quick
            test_huge_threshold_pairs_only_at_root;
          Alcotest.test_case "low threshold pairs deeper" `Quick
            test_low_threshold_pairs_deeper;
          Alcotest.test_case "assignments valid" `Quick
            test_assignments_reference_real_vss;
          Alcotest.test_case "epsilon loosens" `Quick
            test_higher_epsilon_fewer_heavy;
          Alcotest.test_case "VSA is read-only" `Quick
            test_vsa_does_not_move_load;
        ] );
    ]
