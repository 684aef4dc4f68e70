module Graph = P2plb_topology.Graph
module TS = P2plb_topology.Transit_stub
module Landmark = P2plb_landmark.Landmark
module Prng = P2plb_prng.Prng

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ---- Graph ------------------------------------------------------------- *)

let line_graph n =
  let b = Graph.create_builder ~n in
  for i = 0 to n - 2 do
    Graph.add_edge b i (i + 1) ~weight:1
  done;
  Graph.freeze b

let test_build_basics () =
  let b = Graph.create_builder ~n:4 in
  Graph.add_edge b 0 1 ~weight:2;
  Graph.add_edge b 1 2 ~weight:3;
  Graph.add_edge b 0 1 ~weight:9 (* duplicate ignored *);
  let g = Graph.freeze b in
  check Alcotest.int "vertices" 4 (Graph.n_vertices g);
  check Alcotest.int "edges" 2 (Graph.n_edges g);
  check Alcotest.int "degree 1" 2 (Graph.degree g 1);
  check Alcotest.int "degree 3" 0 (Graph.degree g 3)

let test_add_edge_validation () =
  let b = Graph.create_builder ~n:3 in
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self loop")
    (fun () -> Graph.add_edge b 1 1 ~weight:1);
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Graph.add_edge: negative weight") (fun () ->
      Graph.add_edge b 0 1 ~weight:(-1));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Graph.add_edge: vertex out of range") (fun () ->
      Graph.add_edge b 0 3 ~weight:1)

(* Each edge record is two ints, [(u lsl 31) lor v] and
   [(weight lsl 31) lor weight2]: the builder takes vertex counts and
   weights up to 2^31 - 1 and rejects the next value up, and the
   largest weight comes back intact in both metrics. *)
let test_builder_limits () =
  let top = (1 lsl 31) - 1 in
  Alcotest.check_raises "n = 2^31"
    (Invalid_argument "Graph.create_builder: n > 2^31 - 1") (fun () ->
      ignore (Graph.create_builder ~n:(1 lsl 31)));
  let big = Graph.create_builder ~n:top in
  Graph.add_edge big (top - 1) (top - 2) ~weight:top;
  let b = Graph.create_builder ~n:3 in
  Alcotest.check_raises "weight = 2^31"
    (Invalid_argument "Graph.add_edge: weight > 2^31 - 1") (fun () ->
      Graph.add_edge b 0 1 ~weight:(1 lsl 31));
  Alcotest.check_raises "weight2 = 2^31"
    (Invalid_argument "Graph.add_edge: weight > 2^31 - 1") (fun () ->
      Graph.add_edge2 b 0 1 ~weight:1 ~weight2:(1 lsl 31));
  Graph.add_edge2 b 2 1 ~weight:top ~weight2:0;
  Graph.add_edge2 b 0 2 ~weight:0 ~weight2:top;
  let g, g2 = Graph.freeze2 b in
  let row g v =
    let r = ref [] in
    Graph.iter_neighbors g v (fun u w -> r := (u, w) :: !r);
    List.rev !r
  in
  check Alcotest.(list (pair int int)) "row 2" [ (1, top); (0, 0) ] (row g 2);
  check Alcotest.(list (pair int int)) "row 2, second metric"
    [ (1, 0); (0, top) ] (row g2 2)

let test_dijkstra_line () =
  let g = line_graph 6 in
  let d = Graph.dijkstra g ~src:0 in
  check Alcotest.(array int) "distances" [| 0; 1; 2; 3; 4; 5 |] d

let test_dijkstra_weights () =
  let b = Graph.create_builder ~n:4 in
  Graph.add_edge b 0 1 ~weight:10;
  Graph.add_edge b 0 2 ~weight:1;
  Graph.add_edge b 2 3 ~weight:1;
  Graph.add_edge b 3 1 ~weight:1;
  let g = Graph.freeze b in
  (* 0->1 direct costs 10, via 2,3 costs 3 *)
  check Alcotest.int "shortest picks detour" 3 (Graph.distance g ~src:0 ~dst:1)

let test_dijkstra_unreachable () =
  let b = Graph.create_builder ~n:3 in
  Graph.add_edge b 0 1 ~weight:1;
  let g = Graph.freeze b in
  check Alcotest.int "unreachable" max_int (Graph.dijkstra g ~src:0).(2)

let test_dijkstra_zero_weights () =
  let b = Graph.create_builder ~n:3 in
  Graph.add_edge b 0 1 ~weight:0;
  Graph.add_edge b 1 2 ~weight:5;
  let g = Graph.freeze b in
  check Alcotest.int "zero edge" 0 (Graph.distance g ~src:0 ~dst:1);
  check Alcotest.int "through zero" 5 (Graph.distance g ~src:0 ~dst:2)

let test_connectivity () =
  check Alcotest.bool "line connected" true (Graph.is_connected (line_graph 10));
  let b = Graph.create_builder ~n:4 in
  Graph.add_edge b 0 1 ~weight:1;
  Graph.add_edge b 2 3 ~weight:1;
  check Alcotest.bool "two components" false (Graph.is_connected (Graph.freeze b))

let test_oracle_caches () =
  let g = line_graph 8 in
  let o = Graph.Oracle.create g in
  check Alcotest.int "d(1,5)" 4 (Graph.Oracle.distance o ~src:1 ~dst:5);
  check Alcotest.int "d(1,7)" 6 (Graph.Oracle.distance o ~src:1 ~dst:7);
  check Alcotest.int "one source cached" 1 (Graph.Oracle.sources_computed o);
  ignore (Graph.Oracle.distance o ~src:2 ~dst:0);
  check Alcotest.int "two sources" 2 (Graph.Oracle.sources_computed o)

(* Brute-force Bellman-Ford for cross-checking Dijkstra. *)
let bellman_ford edges n src =
  let dist = Array.make n max_int in
  dist.(src) <- 0;
  for _ = 1 to n do
    List.iter
      (fun (u, v, w) ->
        if dist.(u) <> max_int && dist.(u) + w < dist.(v) then
          dist.(v) <- dist.(u) + w;
        if dist.(v) <> max_int && dist.(v) + w < dist.(u) then
          dist.(u) <- dist.(v) + w)
      edges
  done;
  dist

let prop_dijkstra_matches_bellman_ford =
  QCheck.Test.make ~name:"dijkstra = bellman-ford on random graphs" ~count:100
    QCheck.(small_int)
    (fun seed ->
      let rng = Prng.create ~seed in
      let n = 2 + Prng.int rng 12 in
      let b = Graph.create_builder ~n in
      let edges = ref [] in
      let seen = Hashtbl.create 16 in
      let n_edges = Prng.int rng (2 * n) in
      for _ = 1 to n_edges do
        let u = Prng.int rng n and v = Prng.int rng n in
        if u <> v && not (Hashtbl.mem seen (Int.min u v, Int.max u v)) then begin
          Hashtbl.add seen (Int.min u v, Int.max u v) ();
          let w = Prng.int rng 10 in
          Graph.add_edge b u v ~weight:w;
          edges := (u, v, w) :: !edges
        end
      done;
      let g = Graph.freeze b in
      let src = Prng.int rng n in
      Graph.dijkstra g ~src = bellman_ford !edges n src)

(* Independent reference for [freeze] and the CSR kernels: random graphs
   with repeated pairs in both orientations at differing weights, zero
   weights, isolated vertices and several components, checked against
   a first-weight-wins adjacency matrix and Floyd–Warshall over it. *)
let test_against_floyd_warshall () =
  for seed = 1 to 300 do
    let rng = Prng.create ~seed in
    let n = 1 + Prng.int rng 40 in
    (* Vertices fall into up to 4 groups (edges stay within a group);
       group -1 is isolated.  Every fourth graph is one group spanned
       by a random tree, so connected graphs are covered too. *)
    let spanned = seed mod 4 = 0 in
    let groups = if spanned then 1 else 1 + Prng.int rng 4 in
    let group =
      Array.init n (fun _ ->
          if (not spanned) && Prng.int rng 8 = 0 then -1 else Prng.int rng groups)
    in
    let first = Array.make_matrix n n (-1) in
    let b = Graph.create_builder ~n in
    let add u v w =
      Graph.add_edge b u v ~weight:w;
      if first.(u).(v) < 0 then begin
        first.(u).(v) <- w;
        first.(v).(u) <- w
      end
    in
    let added = ref [] in
    let add_new u v =
      add u v (Prng.int rng 6);
      added := (u, v) :: !added
    in
    if spanned then
      for v = 1 to n - 1 do
        add_new v (Prng.int rng v)
      done;
    for _ = 1 to Prng.int rng (3 * n) do
      let u = Prng.int rng n and v = Prng.int rng n in
      if u <> v && group.(u) >= 0 && group.(u) = group.(v) then add_new u v
    done;
    (* Repeats of added pairs, either orientation, other weights. *)
    List.iter
      (fun (u, v) ->
        if Prng.bool rng then
          if Prng.bool rng then add v u (6 + Prng.int rng 6)
          else add u v (6 + Prng.int rng 6))
      !added;
    let g = Graph.freeze b in
    let pairs = ref 0 in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if first.(u).(v) >= 0 then incr pairs
      done
    done;
    let ctx = Printf.sprintf "seed %d" seed in
    check Alcotest.int (ctx ^ ": n_edges") !pairs (Graph.n_edges g);
    let degree_sum = ref 0 in
    for u = 0 to n - 1 do
      degree_sum := !degree_sum + Graph.degree g u;
      let count = ref 0 in
      Graph.iter_neighbors g u (fun v w ->
          incr count;
          check Alcotest.int (ctx ^ ": first weight wins") first.(u).(v) w);
      check Alcotest.int (ctx ^ ": one entry per neighbour")
        (Array.fold_left (fun c w -> if w >= 0 then c + 1 else c) 0 first.(u))
        !count
    done;
    check Alcotest.int (ctx ^ ": degree sum") (2 * Graph.n_edges g) !degree_sum;
    let fw =
      Array.init n (fun u ->
          Array.init n (fun v ->
              if u = v then 0 else if first.(u).(v) >= 0 then first.(u).(v) else max_int))
    in
    for k = 0 to n - 1 do
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if fw.(i).(k) <> max_int && fw.(k).(j) <> max_int
             && fw.(i).(k) + fw.(k).(j) < fw.(i).(j)
          then fw.(i).(j) <- fw.(i).(k) + fw.(k).(j)
        done
      done
    done;
    for src = 0 to n - 1 do
      check Alcotest.(array int) (ctx ^ ": dijkstra row") fw.(src)
        (Graph.dijkstra g ~src)
    done;
    let connected = Array.for_all (fun d -> d <> max_int) fw.(0) in
    if spanned then check Alcotest.bool (ctx ^ ": spanned") true connected;
    check Alcotest.bool (ctx ^ ": is_connected") connected (Graph.is_connected g)
  done

(* ---- Transit-stub ------------------------------------------------------ *)

let small_params =
  {
    TS.ts5k_large with
    TS.transit_domains = 3;
    transit_nodes_per_domain = 2;
    stub_domains_per_transit = 2;
    mean_stub_size = 5;
  }

let test_ts_structure () =
  let rng = Prng.create ~seed:1 in
  let t = TS.generate rng small_params in
  check Alcotest.int "transit count" 6 (Array.length t.TS.transit_vertices);
  check Alcotest.bool "has stubs" true (Array.length t.TS.stub_vertices > 0);
  check Alcotest.int "total"
    (Array.length t.TS.transit_vertices + Array.length t.TS.stub_vertices)
    (Graph.n_vertices t.TS.graph);
  check Alcotest.bool "hop graph connected" true (Graph.is_connected t.TS.graph);
  check Alcotest.bool "latency graph connected" true
    (Graph.is_connected t.TS.latency_graph);
  check Alcotest.int "same structure" (Graph.n_edges t.TS.graph)
    (Graph.n_edges t.TS.latency_graph)

let test_ts_roles () =
  let rng = Prng.create ~seed:2 in
  let t = TS.generate rng small_params in
  Array.iter
    (fun v ->
      match t.TS.roles.(v) with
      | TS.Transit _ -> ()
      | TS.Stub _ -> Alcotest.fail "transit vertex with stub role")
    t.TS.transit_vertices;
  Array.iter
    (fun v ->
      match t.TS.roles.(v) with
      | TS.Stub { transit_of; _ } ->
        check Alcotest.bool "transit_of is a transit vertex" true
          (transit_of >= 0 && transit_of < Array.length t.TS.transit_vertices)
      | TS.Transit _ -> Alcotest.fail "stub vertex with transit role")
    t.TS.stub_vertices

let test_ts_stub_domain_of () =
  let rng = Prng.create ~seed:3 in
  let t = TS.generate rng small_params in
  check Alcotest.bool "transit has no stub domain" true
    (TS.stub_domain_of t t.TS.transit_vertices.(0) = None);
  check Alcotest.bool "stub has domain" true
    (TS.stub_domain_of t t.TS.stub_vertices.(0) <> None)

let test_ts_expected_sizes () =
  let rng = Prng.create ~seed:4 in
  let t = TS.generate rng TS.ts5k_large in
  let n = Graph.n_vertices t.TS.graph in
  (* 15 transit + ~75 stubs x ~60 = ~4500; allow generous slack *)
  check Alcotest.bool "ts5k-large size plausible" true (n > 3000 && n < 7000);
  let rng = Prng.create ~seed:5 in
  let t = TS.generate rng TS.ts5k_small in
  let n = Graph.n_vertices t.TS.graph in
  (* 600 transit + 2400 stubs x ~2 = ~5400 *)
  check Alcotest.bool "ts5k-small size plausible" true (n > 3500 && n < 8000)

let test_ts_weights () =
  let rng = Prng.create ~seed:6 in
  let t = TS.generate rng small_params in
  (* hop-metric weights are only 1 (intra) or 3 (inter) *)
  for v = 0 to Graph.n_vertices t.TS.graph - 1 do
    Graph.iter_neighbors t.TS.graph v (fun _ w ->
        check Alcotest.bool "hop weight is 1 or 3" true (w = 1 || w = 3))
  done

let test_ts_same_domain_short_distance () =
  let rng = Prng.create ~seed:7 in
  let t = TS.generate rng TS.ts5k_large in
  (* dense stub domains: same-domain pairs should average < 4 units *)
  let g = t.TS.graph in
  let by_domain = Hashtbl.create 128 in
  Array.iter
    (fun v ->
      match TS.stub_domain_of t v with
      | Some d ->
        Hashtbl.replace by_domain d
          (v :: Option.value ~default:[] (Hashtbl.find_opt by_domain d))
      | None -> ())
    t.TS.stub_vertices;
  let total = ref 0 and cnt = ref 0 in
  let domains =
    (* sorted by domain id so the 30 sampled pairs are stable *)
    let ds = Hashtbl.fold (fun d vs acc -> (d, vs) :: acc) by_domain [] in
    List.sort (fun (a, _) (b, _) -> Int.compare a b) ds
  in
  List.iter
    (fun (_, vs) ->
      match vs with
      | a :: b :: _ when !cnt < 30 ->
        total := !total + Graph.distance g ~src:a ~dst:b;
        incr cnt
      | _ -> ())
    domains;
  let avg = float_of_int !total /. float_of_int !cnt in
  check Alcotest.bool "same-domain close" true (avg < 4.0)

let test_ts_determinism () =
  let t1 = TS.generate (Prng.create ~seed:42) small_params in
  let t2 = TS.generate (Prng.create ~seed:42) small_params in
  check Alcotest.int "same vertex count" (Graph.n_vertices t1.TS.graph)
    (Graph.n_vertices t2.TS.graph);
  check Alcotest.int "same edge count" (Graph.n_edges t1.TS.graph)
    (Graph.n_edges t2.TS.graph)

let prop_ts_always_connected =
  QCheck.Test.make ~name:"generated topologies are connected" ~count:30
    QCheck.small_int
    (fun seed ->
      let rng = Prng.create ~seed in
      let t = TS.generate rng small_params in
      Graph.is_connected t.TS.graph && Graph.is_connected t.TS.latency_graph)

(* What [generate] allocates on ts5k-large, against the fewest words
   its two graphs can take: the shared offsets and neighbours and one
   weight array each, n + 1 + 6m.  Coin flips and bounded draws that
   allocate nothing and two-int edge records in the builder keep it
   near 1.5 times that; boxed draws or four-int records pass 1.75. *)
let test_ts_allocation () =
  List.iter
    (fun seed ->
      let rng = Prng.create ~seed in
      (* The runtime adds the minor heap's words to the totals at a
         minor collection, so one on each side makes the count exact. *)
      Gc.minor ();
      let before = Gc.allocated_bytes () in
      let t = TS.generate rng TS.ts5k_large in
      Gc.minor ();
      let words = (Gc.allocated_bytes () -. before) /. 8.0 in
      let n = Graph.n_vertices t.TS.graph and m = Graph.n_edges t.TS.graph in
      let ratio = words /. float_of_int (n + 1 + (6 * m)) in
      if ratio > 1.75 then
        Alcotest.failf "seed %d: %.0f words, %.2f x the graphs' %d" seed words
          ratio
          (n + 1 + (6 * m)))
    [ 1; 2; 3; 8 ]

(* ---- Pins --------------------------------------------------------------- *)

(* The sorted [(min, max, hop_w, lat_w)] edge list of a generated
   topology, as n, m and an MD5 digest.  Sorting makes the digest blind
   to neighbour order, which nothing downstream depends on. *)
let edge_digest t =
  let edges g =
    let acc = ref [] in
    for u = 0 to Graph.n_vertices g - 1 do
      Graph.iter_neighbors g u (fun v w -> if u < v then acc := (u, v, w) :: !acc)
    done;
    (* Pairs are distinct, so (u, v) orders the list completely. *)
    List.sort
      (fun (u, v, _) (u', v', _) ->
        if u <> u' then Int.compare u u' else Int.compare v v')
      !acc
  in
  let buf = Buffer.create 4096 in
  List.iter2
    (fun (u, v, hop_w) (u', v', lat_w) ->
      if u <> u' || v <> v' then Alcotest.fail "hop and latency graphs differ";
      Buffer.add_string buf (Printf.sprintf "%d %d %d %d\n" u v hop_w lat_w))
    (edges t.TS.graph) (edges t.TS.latency_graph);
  ( Graph.n_vertices t.TS.graph,
    Graph.n_edges t.TS.graph,
    Digest.to_hex (Digest.string (Buffer.contents buf)) )

(* Recorded from the hash-table generator that preceded the flat
   builder; any change to the PRNG draw order or the dedup rule
   (first copy of a pair wins) moves them. *)
let topology_pins =
  [
    ("ts5k_large", TS.ts5k_large, 1, (4140, 70282, "bb9e59933cabd00e16712c1356fc650c"));
    ("ts5k_large", TS.ts5k_large, 2, (4490, 77092, "9e37df06ccc391f509c67959b4000e3c"));
    ("ts5k_small", TS.ts5k_small, 1, (5342, 6228, "40818c65cc9426697c9d1a741d409141"));
    ("ts5k_small", TS.ts5k_small, 2, (5382, 6284, "c6c6ac977c4e757e5f6bf5688ad77734"));
    ("scaled 4096", TS.scaled ~n:4096, 1, (5234, 15801, "7d4aa655bfa2ce8fe511960abfafd145"));
    ("scaled 4096", TS.scaled ~n:4096, 2, (5457, 17192, "955bda8c631f37d177661ed32bac33fc"));
  ]

let test_topology_pins () =
  List.iter
    (fun (name, params, seed, expect) ->
      check
        Alcotest.(triple int int string)
        (Printf.sprintf "%s seed %d: n, m, edge digest" name seed)
        expect
        (edge_digest (TS.generate (Prng.create ~seed) params)))
    topology_pins;
  (* Landmark axes sorted for quantile binning match [Array.sort] of
     each row, unreachable vertices last: once on a ts5k-small latency
     graph plus an isolated vertex and a detached pair (counting sort),
     once on a small graph whose weights dwarf its vertex count
     (comparison sort). *)
  let sorted_rows g ~landmarks =
    let sp = Landmark.make_space g ~landmarks in
    Array.iteri
      (fun l _ ->
        let row =
          Array.init (Graph.n_vertices g) (fun v -> (Landmark.vector sp v).(l))
        in
        check Alcotest.bool "has unreachable" true (Array.mem max_int row);
        Array.sort Int.compare row;
        check Alcotest.(array int)
          (Printf.sprintf "sorted axis %d" l)
          row
          (Landmark.sorted_distances sp l))
      landmarks
  in
  let base = (TS.generate (Prng.create ~seed:1) TS.ts5k_small).TS.latency_graph in
  let n = Graph.n_vertices base in
  let b = Graph.create_builder ~n:(n + 3) in
  for u = 0 to n - 1 do
    Graph.iter_neighbors base u (fun v w -> if u < v then Graph.add_edge b u v ~weight:w)
  done;
  Graph.add_edge b (n + 1) (n + 2) ~weight:4;
  sorted_rows (Graph.freeze b) ~landmarks:[| 0; 17; n - 1; n + 1 |];
  let b = Graph.create_builder ~n:5 in
  Graph.add_edge b 0 1 ~weight:1_000_000;
  Graph.add_edge b 1 2 ~weight:7;
  Graph.add_edge b 3 4 ~weight:0;
  sorted_rows (Graph.freeze b) ~landmarks:[| 0; 2; 4 |]

let () =
  Alcotest.run "topology"
    [
      ( "graph",
        [
          Alcotest.test_case "build" `Quick test_build_basics;
          Alcotest.test_case "validation" `Quick test_add_edge_validation;
          Alcotest.test_case "builder limits" `Quick test_builder_limits;
          Alcotest.test_case "dijkstra line" `Quick test_dijkstra_line;
          Alcotest.test_case "dijkstra weights" `Quick test_dijkstra_weights;
          Alcotest.test_case "unreachable" `Quick test_dijkstra_unreachable;
          Alcotest.test_case "zero weights" `Quick test_dijkstra_zero_weights;
          Alcotest.test_case "connectivity" `Quick test_connectivity;
          Alcotest.test_case "oracle" `Quick test_oracle_caches;
          Alcotest.test_case "floyd-warshall reference" `Quick
            test_against_floyd_warshall;
        ] );
      ( "transit-stub",
        [
          Alcotest.test_case "structure" `Quick test_ts_structure;
          Alcotest.test_case "roles" `Quick test_ts_roles;
          Alcotest.test_case "stub_domain_of" `Quick test_ts_stub_domain_of;
          Alcotest.test_case "sizes" `Slow test_ts_expected_sizes;
          Alcotest.test_case "hop weights" `Quick test_ts_weights;
          Alcotest.test_case "same-domain distance" `Slow
            test_ts_same_domain_short_distance;
          Alcotest.test_case "determinism" `Quick test_ts_determinism;
          Alcotest.test_case "generate allocates its graphs" `Quick
            test_ts_allocation;
        ] );
      ("pins", [ Alcotest.test_case "topology pins" `Quick test_topology_pins ]);
      ( "properties",
        [ qtest prop_dijkstra_matches_bellman_ford; qtest prop_ts_always_connected ]
      );
    ]
