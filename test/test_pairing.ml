module Pairing = P2plb.Pairing
module Types = P2plb.Types
module Dht = P2plb_chord.Dht

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let next_vs = ref 0

(* Each shed offers a VS of its own, a handle from a real ring: any
   2048 consecutive sheds name distinct VSs. *)
let shed ?(node = 100) load : Types.shed_vs =
  incr next_vs;
  {
    vs_load = load;
    vs = Pairing_reference.vs (!next_vs mod 2048);
    heavy_node = node;
  }

let light ?(node = 200) deficit : Types.light_slot =
  { deficit; light_node = node }

let test_empty_pool () =
  check Alcotest.bool "empty" true (Pairing.is_empty Pairing.empty);
  check Alcotest.int "size 0" 0 (Pairing.size Pairing.empty);
  let assignments, leftover = Pairing.pair ~l_min:0.1 Pairing.empty in
  check Alcotest.int "nothing assigned" 0 (List.length assignments);
  check Alcotest.bool "leftover empty" true (Pairing.is_empty leftover)

let test_simple_pair () =
  let pool = Pairing.of_entries [ shed 5.0 ] [ light 7.0 ] in
  let assignments, leftover = Pairing.pair ~l_min:0.1 pool in
  (match assignments with
  | [ a ] ->
    check (Alcotest.float 1e-9) "load" 5.0 a.Types.a_load;
    check Alcotest.int "from" 100 a.Types.a_from;
    check Alcotest.int "to" 200 a.Types.a_to
  | _ -> Alcotest.fail "expected exactly one assignment");
  (* residual 2.0 >= l_min: reinserted *)
  check Alcotest.int "residual light kept" 1 (Pairing.n_lights leftover);
  check Alcotest.int "no shed left" 0 (Pairing.n_shed leftover)

let test_residual_dropped_below_lmin () =
  let pool = Pairing.of_entries [ shed 5.0 ] [ light 5.05 ] in
  let _, leftover = Pairing.pair ~l_min:0.1 pool in
  check Alcotest.int "residual below l_min dropped" 0
    (Pairing.n_lights leftover)

let test_heaviest_first_smallest_sufficient () =
  (* two sheds 5 and 3; lights 5 and 9: heaviest (5) takes the
     smallest sufficient (5), then 3 takes the remaining 9 leaving
     residual 6 reinserted. *)
  let pool =
    Pairing.of_entries
      [ shed 5.0; shed 3.0 ]
      [ light ~node:201 5.0; light ~node:202 9.0 ]
  in
  let assignments, leftover = Pairing.pair ~l_min:0.1 pool in
  check Alcotest.int "two assignments" 2 (List.length assignments);
  let a1 = List.nth assignments 0 and a2 = List.nth assignments 1 in
  check (Alcotest.float 1e-9) "heaviest first" 5.0 a1.Types.a_load;
  check Alcotest.int "tight fit" 201 a1.Types.a_to;
  check Alcotest.int "second to big light" 202 a2.Types.a_to;
  check Alcotest.int "residual 6 kept" 1 (Pairing.n_lights leftover)

let test_unpairable_shed_left_over () =
  let pool = Pairing.of_entries [ shed 10.0 ] [ light 5.0 ] in
  let assignments, leftover = Pairing.pair ~l_min:0.1 pool in
  check Alcotest.int "nothing pairs" 0 (List.length assignments);
  check Alcotest.int "shed kept" 1 (Pairing.n_shed leftover);
  check Alcotest.int "light kept" 1 (Pairing.n_lights leftover)

let test_smaller_shed_still_pairs_after_big_fails () =
  let pool =
    Pairing.of_entries [ shed 10.0; shed 2.0 ] [ light 5.0 ] in
  let assignments, leftover = Pairing.pair ~l_min:0.1 pool in
  check Alcotest.int "small one pairs" 1 (List.length assignments);
  check (Alcotest.float 1e-9) "the 2.0" 2.0
    (List.hd assignments).Types.a_load;
  check Alcotest.int "big shed unpaired" 1 (Pairing.n_shed leftover)

let test_never_pairs_with_own_node () =
  let pool =
    Pairing.of_entries [ shed ~node:7 4.0 ] [ light ~node:7 10.0 ] in
  let assignments, leftover = Pairing.pair ~l_min:0.1 pool in
  check Alcotest.int "no self-transfer" 0 (List.length assignments);
  check Alcotest.int "both kept" 2 (Pairing.size leftover)

let test_self_skip_finds_other () =
  let pool =
    Pairing.of_entries
      [ shed ~node:7 4.0 ]
      [ light ~node:7 5.0; light ~node:8 6.0 ]
  in
  let assignments, _ = Pairing.pair ~l_min:0.1 pool in
  check Alcotest.int "one assignment" 1 (List.length assignments);
  check Alcotest.int "to the other node" 8 (List.hd assignments).Types.a_to

let test_one_light_absorbs_many () =
  let pool =
    Pairing.of_entries
      [ shed 3.0; shed ~node:101 2.0; shed ~node:102 1.0 ]
      [ light 10.0 ]
  in
  let assignments, leftover = Pairing.pair ~l_min:0.1 pool in
  check Alcotest.int "all three" 3 (List.length assignments);
  check Alcotest.int "no shed left" 0 (Pairing.n_shed leftover);
  (* residual 10-6=4 kept *)
  check Alcotest.int "residual kept" 1 (Pairing.n_lights leftover)

let test_merge () =
  let a = Pairing.of_entries [ shed 1.0 ] [ light 2.0 ] in
  let b = Pairing.of_entries [ shed 3.0 ] [ light 4.0; light 5.0 ] in
  let m = Pairing.merge a b in
  check Alcotest.int "size" 5 (Pairing.size m);
  check Alcotest.int "sheds" 2 (Pairing.n_shed m);
  check Alcotest.int "lights" 3 (Pairing.n_lights m)

let test_entries_sorted () =
  let p =
    Pairing.of_entries
      [ shed 2.0; shed ~node:101 9.0; shed ~node:102 4.0 ]
      [ light 5.0; light ~node:201 1.0 ]
  in
  check
    Alcotest.(list (float 1e-9))
    "sheds descending" [ 9.0; 4.0; 2.0 ]
    (List.map (fun (s : Types.shed_vs) -> s.Types.vs_load) (Pairing.shed_entries p));
  check
    Alcotest.(list (float 1e-9))
    "lights ascending" [ 1.0; 5.0 ]
    (List.map
       (fun (l : Types.light_slot) -> l.Types.deficit)
       (Pairing.light_entries p))

(* ---- properties --------------------------------------------------------- *)

let pool_gen =
  let open QCheck.Gen in
  let shed_gen =
    pair (float_range 0.1 10.0) (int_range 0 20) >>= fun (load, node) ->
    return (shed ~node load)
  in
  let light_gen =
    pair (float_range 0.1 20.0) (int_range 21 40) >>= fun (d, node) ->
    return (light ~node d)
  in
  pair (list_size (int_range 0 25) shed_gen) (list_size (int_range 0 25) light_gen)

let pool_arb = QCheck.make pool_gen

let prop_assignments_fit =
  QCheck.Test.make ~name:"every assignment fits its light node's deficit"
    ~count:500 pool_arb
    (fun (sheds, lights) ->
      let pool = Pairing.of_entries sheds lights in
      let assignments, _ = Pairing.pair ~l_min:0.05 pool in
      (* replay: per light node, total assigned <= original deficit *)
      let budget = Hashtbl.create 16 in
      List.iter
        (fun (l : Types.light_slot) ->
          Hashtbl.replace budget l.Types.light_node
            (l.Types.deficit
            +. Option.value ~default:0.0
                 (Hashtbl.find_opt budget l.Types.light_node)))
        lights;
      List.for_all
        (fun (a : Types.assignment) ->
          match Hashtbl.find_opt budget a.Types.a_to with
          | None -> false
          | Some b ->
            Hashtbl.replace budget a.Types.a_to (b -. a.Types.a_load);
            b -. a.Types.a_load >= -1e-9)
        assignments)

let prop_no_duplicate_vs =
  QCheck.Test.make ~name:"no VS assigned twice" ~count:500 pool_arb
    (fun (sheds, lights) ->
      let pool = Pairing.of_entries sheds lights in
      let assignments, _ = Pairing.pair ~l_min:0.05 pool in
      let ids = List.map (fun a -> a.Types.a_vs.Dht.vs_id) assignments in
      List.length ids = List.length (List.sort_uniq Int.compare ids))

let prop_conservation =
  QCheck.Test.make ~name:"assigned + leftover = offered sheds" ~count:500
    pool_arb
    (fun (sheds, lights) ->
      let pool = Pairing.of_entries sheds lights in
      let assignments, leftover = Pairing.pair ~l_min:0.05 pool in
      List.length assignments + Pairing.n_shed leftover = List.length sheds)

let prop_no_self_pairs =
  QCheck.Test.make ~name:"never assigns a VS to its own node" ~count:500
    (QCheck.make
       QCheck.Gen.(
         pool_gen >>= fun (s, l) ->
         (* force node-id overlap between heavy and light sides *)
         let l =
           List.map
             (fun (slot : Types.light_slot) ->
               { slot with Types.light_node = slot.Types.light_node mod 21 })
             l
         in
         return (s, l)))
    (fun (sheds, lights) ->
      let pool = Pairing.of_entries sheds lights in
      let assignments, _ = Pairing.pair ~l_min:0.05 pool in
      List.for_all (fun a -> a.Types.a_from <> a.Types.a_to) assignments)

(* Equal-load sheds left unpaired keep the order the pool gave them:
   through the pass that leaves them, a second pass over the settled
   leftover, and a merge with lights that fit none of them. *)
let test_unpaired_ties_keep_pool_order () =
  let ties = [ shed ~node:101 4.0; shed ~node:102 4.0; shed ~node:103 4.0 ] in
  let vss = List.map (fun (s : Types.shed_vs) -> s.Types.vs) in
  let in_pool_order what p =
    check Alcotest.bool what true
      (List.equal ( == ) (vss ties) (vss (Pairing.shed_entries p)))
  in
  let pool =
    Pairing.of_entries (shed 5.0 :: ties) [ light 5.0; light ~node:201 1.0 ]
  in
  let made, left = Pairing.pair ~l_min:0.1 pool in
  check Alcotest.int "the heavier shed pairs" 1 (List.length made);
  in_pool_order "after the pass" left;
  let made, left = Pairing.pair ~l_min:0.1 left in
  check Alcotest.int "a re-pair makes none" 0 (List.length made);
  in_pool_order "after a re-pair" left;
  let merged =
    Pairing.merge left (Pairing.of_entries [] [ light ~node:202 2.0 ])
  in
  in_pool_order "after a merge" merged;
  let made, left = Pairing.pair ~l_min:0.1 merged in
  check Alcotest.int "the merged pool makes none" 0 (List.length made);
  in_pool_order "after pairing the merge" left

let () =
  Alcotest.run "pairing"
    [
      ( "cases",
        [
          Alcotest.test_case "empty" `Quick test_empty_pool;
          Alcotest.test_case "simple pair" `Quick test_simple_pair;
          Alcotest.test_case "residual < l_min" `Quick
            test_residual_dropped_below_lmin;
          Alcotest.test_case "heaviest-first policy" `Quick
            test_heaviest_first_smallest_sufficient;
          Alcotest.test_case "unpairable shed" `Quick
            test_unpairable_shed_left_over;
          Alcotest.test_case "smaller still pairs" `Quick
            test_smaller_shed_still_pairs_after_big_fails;
          Alcotest.test_case "no self pair" `Quick
            test_never_pairs_with_own_node;
          Alcotest.test_case "self skip" `Quick test_self_skip_finds_other;
          Alcotest.test_case "one light absorbs many" `Quick
            test_one_light_absorbs_many;
          Alcotest.test_case "merge" `Quick test_merge;
          Alcotest.test_case "entries sorted" `Quick test_entries_sorted;
          Alcotest.test_case "unpaired ties keep pool order" `Quick
            test_unpaired_ties_keep_pool_order;
        ] );
      ( "properties",
        [
          qtest prop_assignments_fit;
          qtest prop_no_duplicate_vs;
          qtest prop_conservation;
          qtest prop_no_self_pairs;
        ] );
    ]
