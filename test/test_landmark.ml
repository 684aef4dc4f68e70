module Graph = P2plb_topology.Graph
module TS = P2plb_topology.Transit_stub
module Landmark = P2plb_landmark.Landmark
module Hilbert = P2plb_hilbert.Hilbert
module Id = P2plb_idspace.Id
module Prng = P2plb_prng.Prng

let check = Alcotest.check

let line_graph n =
  let b = Graph.create_builder ~n in
  for i = 0 to n - 2 do
    Graph.add_edge b i (i + 1) ~weight:1
  done;
  Graph.freeze b

let test_select_random_distinct () =
  let g = line_graph 100 in
  let rng = Prng.create ~seed:1 in
  let lms = Landmark.select_random rng g ~m:15 in
  check Alcotest.int "count" 15 (Array.length lms);
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun l ->
      check Alcotest.bool "distinct" false (Hashtbl.mem tbl l);
      Hashtbl.add tbl l ())
    lms

let test_select_spread_spreads () =
  let g = line_graph 100 in
  let rng = Prng.create ~seed:2 in
  let lms = Landmark.select_spread rng g ~m:3 in
  (* farthest-point keeps landmarks pairwise far apart on a line *)
  let min_gap = ref max_int in
  Array.iteri
    (fun i a ->
      Array.iteri
        (fun j b -> if i < j then min_gap := Int.min !min_gap (abs (a - b)))
        lms)
    lms;
  check Alcotest.bool "pairwise separated" true (!min_gap >= 20);
  (* Brute force on a ts5k-small latency graph: every pick is the
     lowest-numbered unchosen vertex farthest from the picks before it. *)
  let g = (TS.generate (Prng.create ~seed:3) TS.ts5k_small).TS.latency_graph in
  let n = Graph.n_vertices g in
  let lms = Landmark.select_spread (Prng.create ~seed:4) g ~m:15 in
  let rows = Array.map (fun l -> Graph.dijkstra g ~src:l) lms in
  for i = 1 to Array.length lms - 1 do
    let to_set v =
      let d = ref max_int in
      for j = 0 to i - 1 do
        d := Int.min !d rows.(j).(v)
      done;
      !d
    in
    let chosen v = Array.exists (Int.equal v) (Array.sub lms 0 i) in
    let best = ref (-1) in
    for v = n - 1 downto 0 do
      let d = to_set v in
      if (not (chosen v)) && d <> max_int
         && (!best < 0 || d >= to_set !best)
      then best := v
    done;
    check Alcotest.int (Printf.sprintf "pick %d is the farthest" i) !best lms.(i)
  done

let test_vector_matches_dijkstra () =
  let g = line_graph 20 in
  let sp = Landmark.make_space g ~landmarks:[| 0; 19 |] in
  check Alcotest.(array int) "vector of 5" [| 5; 14 |] (Landmark.vector sp 5);
  check Alcotest.int "m" 2 (Landmark.m sp);
  check Alcotest.int "d_max" 19 (Landmark.max_distance sp)

let test_grid_coords_bounds () =
  let g = line_graph 50 in
  let sp = Landmark.make_space g ~landmarks:[| 0; 25; 49 |] in
  for v = 0 to 49 do
    Array.iter
      (fun c -> check Alcotest.bool "coord in range" true (c >= 0 && c < 8))
      (Landmark.grid_coords sp ~order:3 v)
  done

let test_grid_coords_monotone_on_line () =
  let g = line_graph 64 in
  let sp = Landmark.make_space g ~landmarks:[| 0 |] in
  let prev = ref (-1) in
  for v = 0 to 63 do
    let c = (Landmark.grid_coords sp ~order:3 v).(0) in
    check Alcotest.bool "non-decreasing with distance" true (c >= !prev);
    prev := c
  done;
  (* both extremes hit *)
  check Alcotest.int "closest cell" 0 ((Landmark.grid_coords sp ~order:3 0).(0));
  check Alcotest.int "farthest cell" 7 ((Landmark.grid_coords sp ~order:3 63).(0))

let test_quantile_binning_balances () =
  let g = line_graph 64 in
  let sp = Landmark.make_space g ~landmarks:[| 0 |] in
  let counts = Array.make 4 0 in
  for v = 0 to 63 do
    let c =
      (Landmark.grid_coords ~binning:Landmark.Quantile sp ~order:2 v).(0)
    in
    counts.(c) <- counts.(c) + 1
  done;
  Array.iter (fun c -> check Alcotest.int "equal-frequency cells" 16 c) counts

let test_same_vector_same_key () =
  let g = line_graph 30 in
  let sp = Landmark.make_space g ~landmarks:[| 0; 29 |] in
  (* vertices equidistant from both landmarks share keys *)
  let k1 = Landmark.dht_key sp ~order:4 10 in
  let k1' = Landmark.dht_key sp ~order:4 10 in
  check Alcotest.int "deterministic" k1 k1';
  check Alcotest.bool "key on ring" true (k1 >= 0 && k1 < Id.space_size)

let test_closer_vertices_closer_keys_on_line () =
  (* On a 1-landmark line the landmark space is 1-d, where the Hilbert
     key is monotone in distance: ring distance reflects line
     distance. *)
  let g = line_graph 64 in
  let sp = Landmark.make_space g ~landmarks:[| 0 |] in
  let key v = Landmark.dht_key sp ~order:5 v in
  let d_near = abs (key 10 - key 12) in
  let d_far = abs (key 10 - key 60) in
  check Alcotest.bool "near pair closer than far pair" true (d_near < d_far)

let test_proximity_on_transit_stub () =
  (* The paper's core premise: same-stub-domain nodes get closer keys
     than cross-domain nodes, on average. *)
  let rng = Prng.create ~seed:3 in
  let params =
    { TS.ts5k_large with TS.transit_domains = 3; mean_stub_size = 12 }
  in
  let t = TS.generate rng params in
  let lms = Landmark.select_random rng t.TS.latency_graph ~m:8 in
  let sp = Landmark.make_space t.TS.latency_graph ~landmarks:lms in
  let key v = Landmark.dht_key sp ~order:4 v in
  let ring_dist a b =
    let d = Id.distance_cw a b in
    Int.min d (Id.space_size - d)
  in
  let stubs = t.TS.stub_vertices in
  let same = ref [] and diff = ref [] in
  let r2 = Prng.create ~seed:4 in
  for _ = 1 to 3000 do
    let a = Prng.choose r2 stubs and b = Prng.choose r2 stubs in
    if a <> b then begin
      let kd = float_of_int (ring_dist (key a) (key b)) in
      match (TS.stub_domain_of t a, TS.stub_domain_of t b) with
      | Some da, Some db when da = db -> same := kd :: !same
      | Some _, Some _ -> diff := kd :: !diff
      | _ -> ()
    end
  done;
  let avg l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
  check Alcotest.bool "need samples" true
    (List.length !same > 5 && List.length !diff > 5);
  check Alcotest.bool "same-domain keys much closer" true
    (avg !same < avg !diff /. 2.0)

let test_curve_options () =
  let g = line_graph 16 in
  let sp = Landmark.make_space g ~landmarks:[| 0; 15 |] in
  let h = Landmark.hilbert_number ~curve:Hilbert.Hilbert sp ~order:3 7 in
  let m = Landmark.hilbert_number ~curve:Hilbert.Morton sp ~order:3 7 in
  let r = Landmark.hilbert_number ~curve:Hilbert.Row_major sp ~order:3 7 in
  List.iter
    (fun x ->
      check Alcotest.bool "in index range" true (x >= 0 && x < 1 lsl 6))
    [ h; m; r ]

(* [Landmark.key] through [keys sp] against a fresh [dht_key] for
   every vertex, read twice so the second read comes from the table. *)
let table_matches ~curve ~binning sp ~order vertices =
  let keys = Landmark.keys ~curve ~binning sp ~order in
  List.for_all
    (fun _ ->
      List.for_all
        (fun v ->
          Id.equal (Landmark.key keys v)
            (Landmark.dht_key ~curve ~binning sp ~order v))
        vertices)
    [ 1; 2 ]

(* Every curve, binning and order 1-3.  A call with other parameters
   replaces the table the space keeps; the orders then run down again,
   so parameters served before get a refilled table. *)
let test_key_table_matches_dht_key () =
  let g = (TS.generate (Prng.create ~seed:5) TS.ts5k_small).TS.latency_graph in
  let sp =
    Landmark.make_space g
      ~landmarks:(Landmark.select_random (Prng.create ~seed:6) g ~m:4)
  in
  let vertices = List.init (Graph.n_vertices g) Fun.id in
  List.iter
    (fun curve ->
      List.iter
        (fun binning ->
          List.iter
            (fun order ->
              check Alcotest.bool
                (Printf.sprintf "order %d" order)
                true
                (table_matches ~curve ~binning sp ~order vertices))
            [ 1; 2; 3; 2; 1 ])
        [ Landmark.Equal_width; Landmark.Quantile ])
    [ Hilbert.Hilbert; Hilbert.Morton; Hilbert.Row_major ];
  let k = Landmark.keys sp ~order:2 in
  check Alcotest.bool "same parameters, same table" true
    (k == Landmark.keys sp ~order:2);
  check Alcotest.bool "other curve, fresh table" false
    (k == Landmark.keys ~curve:Hilbert.Morton sp ~order:2);
  check Alcotest.bool "other order, fresh table" false
    (Landmark.keys ~curve:Hilbert.Morton sp ~order:2
    == Landmark.keys ~curve:Hilbert.Morton sp ~order:3)

(* [Scenario.build ~base] hands the base's space, and so its table, to
   the second build, as the proximity experiments' ignorant pass does:
   keys read for one scenario's nodes stay right for the other's. *)
let test_key_table_shared_by_base () =
  let config =
    {
      P2plb.Scenario.default with
      n_nodes = 64;
      topology = TS.ts5k_small;
    }
  in
  let a = P2plb.Scenario.build ~seed:7 config in
  let b = P2plb.Scenario.build ~base:a ~seed:7 config in
  check Alcotest.bool "one space" true (a.P2plb.Scenario.space == b.P2plb.Scenario.space);
  let underlays (s : P2plb.Scenario.t) =
    List.map
      (fun n -> n.P2plb_chord.Dht.underlay)
      (P2plb_chord.Dht.alive_nodes s.P2plb.Scenario.dht)
  in
  List.iter
    (fun (s : P2plb.Scenario.t) ->
      check Alcotest.bool "table = dht_key" true
        (table_matches ~curve:Hilbert.Hilbert ~binning:Landmark.Quantile
           s.P2plb.Scenario.space ~order:2 (underlays s)))
    [ a; b; a ]

let () =
  Alcotest.run "landmark"
    [
      ( "selection",
        [
          Alcotest.test_case "random distinct" `Quick
            test_select_random_distinct;
          Alcotest.test_case "spread" `Quick test_select_spread_spreads;
        ] );
      ( "vectors",
        [
          Alcotest.test_case "vector = dijkstra" `Quick
            test_vector_matches_dijkstra;
          Alcotest.test_case "grid bounds" `Quick test_grid_coords_bounds;
          Alcotest.test_case "grid monotone" `Quick
            test_grid_coords_monotone_on_line;
          Alcotest.test_case "quantile binning" `Quick
            test_quantile_binning_balances;
        ] );
      ( "keys",
        [
          Alcotest.test_case "deterministic" `Quick test_same_vector_same_key;
          Alcotest.test_case "line locality" `Quick
            test_closer_vertices_closer_keys_on_line;
          Alcotest.test_case "transit-stub proximity" `Slow
            test_proximity_on_transit_stub;
          Alcotest.test_case "curves" `Quick test_curve_options;
          Alcotest.test_case "key table = dht_key" `Quick
            test_key_table_matches_dht_key;
          Alcotest.test_case "key table shared by ~base" `Quick
            test_key_table_shared_by_base;
        ] );
    ]
