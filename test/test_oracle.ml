(* Graph.Oracle: the memoising distance oracle.

   Two claims under test: agreement (the oracle returns exactly what a
   fresh Dijkstra returns, on random graphs and random pairs — both
   bridgeless ones and ones with bridges, where the answer is
   assembled across the bridge decomposition) and memoisation
   (repeated queries from one source cost exactly one Dijkstra,
   observed through the probe counter). *)

module Prng = P2plb_prng.Prng
module Graph = P2plb_topology.Graph

let check = Alcotest.check

(* A connected random graph: a ring (guarantees connectivity, so no
   max_int distances muddy the comparison) plus random chords, with
   random small weights throughout. *)
let random_graph rng ~n ~extra =
  let b = Graph.create_builder ~n in
  for i = 0 to n - 1 do
    Graph.add_edge b i ((i + 1) mod n) ~weight:(1 + Prng.int rng 3)
  done;
  for _ = 1 to extra do
    let u = Prng.int rng n and v = Prng.int rng n in
    if u <> v then Graph.add_edge b u v ~weight:(1 + Prng.int rng 3)
  done;
  Graph.freeze b

let test_agrees_with_dijkstra () =
  let rng = Prng.create ~seed:0x0a1e in
  for _ = 1 to 20 do
    let n = 8 + Prng.int rng 25 in
    let g = random_graph rng ~n ~extra:(n / 2) in
    let o = Graph.Oracle.create g in
    for _ = 1 to 30 do
      let src = Prng.int rng n and dst = Prng.int rng n in
      check Alcotest.int
        (Printf.sprintf "distance %d -> %d" src dst)
        (Graph.distance g ~src ~dst)
        (Graph.Oracle.distance o ~src ~dst)
    done
  done

let test_one_probe_per_source () =
  let rng = Prng.create ~seed:0x0a1f in
  let n = 32 in
  let g = random_graph rng ~n ~extra:16 in
  let o = Graph.Oracle.create g in
  check Alcotest.int "fresh oracle has run nothing" 0 (Graph.Oracle.probes o);
  (* Many queries, one source: exactly one Dijkstra. *)
  for dst = 0 to n - 1 do
    ignore (Graph.Oracle.distance o ~src:5 ~dst)
  done;
  check Alcotest.int "one source, one probe" 1 (Graph.Oracle.probes o);
  check Alcotest.int "one source cached" 1 (Graph.Oracle.sources_computed o);
  (* A second source adds exactly one more. *)
  ignore (Graph.Oracle.distance o ~src:9 ~dst:0);
  ignore (Graph.Oracle.distance o ~src:9 ~dst:1);
  ignore (Graph.Oracle.distance o ~src:5 ~dst:7);
  check Alcotest.int "two sources, two probes" 2 (Graph.Oracle.probes o);
  check Alcotest.int "two sources cached" 2 (Graph.Oracle.sources_computed o)

let test_probes_match_sources () =
  let rng = Prng.create ~seed:0x0a20 in
  let n = 24 in
  let g = random_graph rng ~n ~extra:12 in
  let o = Graph.Oracle.create g in
  (* Random query mix: however the queries interleave, probe count must
     equal the number of distinct sources seen. *)
  let seen = Hashtbl.create 16 in
  for _ = 1 to 200 do
    let src = Prng.int rng n and dst = Prng.int rng n in
    Hashtbl.replace seen src ();
    ignore (Graph.Oracle.distance o ~src ~dst)
  done;
  check Alcotest.int "probes = distinct sources" (Hashtbl.length seen)
    (Graph.Oracle.probes o);
  check Alcotest.int "sources_computed agrees" (Hashtbl.length seen)
    (Graph.Oracle.sources_computed o)

(* Regression bound for the proximity experiments: re-building a
   scenario with [?base] donates the oracle, so transfer-cost
   accounting across both modes of one graph instance pays one Dijkstra
   per distinct source — never one per (mode, pair). *)
let test_shared_base_probe_bound () =
  let module TS = P2plb_topology.Transit_stub in
  let module Scenario = P2plb.Scenario in
  let module Controller = P2plb.Controller in
  let topology =
    {
      TS.ts5k_large with
      TS.transit_domains = 3;
      transit_nodes_per_domain = 2;
      stub_domains_per_transit = 3;
      mean_stub_size = 20;
    }
  in
  let config = { Scenario.default with n_nodes = 128; topology } in
  let s = Scenario.build ~seed:7 config in
  let o1 =
    Controller.run
      ~config:{ Controller.default with Controller.proximity = true }
      s
  in
  let probes_aware = Graph.Oracle.probes s.Scenario.oracle in
  let s2 = Scenario.build ~base:s ~seed:7 config in
  check Alcotest.bool "base donates the oracle" true
    (s2.Scenario.oracle == s.Scenario.oracle);
  let o2 =
    Controller.run
      ~config:{ Controller.default with Controller.proximity = false }
      s2
  in
  let probes_both = Graph.Oracle.probes s2.Scenario.oracle in
  ignore o1;
  ignore o2;
  (* Sources are node underlay vertices, so the probe count across both
     modes is bounded by the node count (and by the distinct-source
     cache size, per the memoisation tests above); without the shared
     base the second run would re-pay every source. *)
  check Alcotest.bool "probes bounded by n_nodes" true
    (probes_both <= config.Scenario.n_nodes);
  check Alcotest.bool "second mode reuses the cache" true
    (probes_both >= probes_aware);
  check Alcotest.int "cache holds exactly the probed sources" probes_both
    (Graph.Oracle.sources_computed s.Scenario.oracle)

(* A sparse graph with bridges.  Blocks — random trees, cycles,
   cliques, single vertices — are joined to an earlier block by one
   edge (a bridge), sometimes by a second edge (so the join is not a
   bridge), or not at all (several components, [max_int] distances).
   Weights are 0–3, so zero-weight edges occur, and vertex labels are
   shuffled so the DFS root lands anywhere in the bridge forest. *)
let bridged_graph rng =
  let blocks = 1 + Prng.int rng 7 in
  let sizes = Array.init blocks (fun _ -> 1 + Prng.int rng 6) in
  let first = Array.make blocks 0 in
  for k = 1 to blocks - 1 do
    first.(k) <- first.(k - 1) + sizes.(k - 1)
  done;
  let n = first.(blocks - 1) + sizes.(blocks - 1) in
  let label = Array.init n Fun.id in
  Prng.shuffle rng label;
  let b = Graph.create_builder ~n in
  let edge u v = Graph.add_edge b label.(u) label.(v) ~weight:(Prng.int rng 4) in
  Array.iteri
    (fun k size ->
      let v i = first.(k) + i in
      match Prng.int rng 3 with
      | 0 ->
        for i = 1 to size - 1 do
          edge (v i) (v (Prng.int rng i))
        done
      | 1 when size >= 3 ->
        for i = 0 to size - 1 do
          edge (v i) (v ((i + 1) mod size))
        done
      | _ ->
        for i = 0 to size - 1 do
          for j = i + 1 to size - 1 do
            edge (v i) (v j)
          done
        done)
    sizes;
  let member k = first.(k) + Prng.int rng sizes.(k) in
  for k = 1 to blocks - 1 do
    let j = Prng.int rng k in
    match Prng.int rng 4 with
    | 0 -> ()
    | 1 ->
      edge (member k) (member j);
      edge (member k) (member j)
    | _ -> edge (member k) (member j)
  done;
  Graph.freeze b

let test_bridged_all_pairs () =
  let rng = Prng.create ~seed:0x0b1d in
  for case = 1 to 250 do
    let g = bridged_graph rng in
    let n = Graph.n_vertices g in
    let o = Graph.Oracle.create g in
    for src = 0 to n - 1 do
      let expect = Graph.dijkstra g ~src in
      for dst = 0 to n - 1 do
        check Alcotest.int
          (Printf.sprintf "case %d: distance %d -> %d" case src dst)
          expect.(dst)
          (Graph.Oracle.distance o ~src ~dst)
      done
    done
  done

(* Blocks for [dense_graph]: every edge of a [Clique] or a [Random]
   block (edge probability 1/2) weighs [w]. *)
type block = Clique of int * int | Random of int * int | Cycle of int | Mixed of int

(* Comps where the oracle answers by breadth-first search over
   adjacency bitsets: cliques and dense random blocks of one weight
   [w] in 0–3, sized on both sides of the 63-vertex word (1, 62, 63,
   64, 125, 126, 127).  [variant] decides each size's kind and weight,
   so four variants give every size both kinds and every weight.
   Beside them sit a unit-weight 127-cycle, uniform but too sparse for
   bitsets, and a clique of weights 1–3.  Blocks come in a shuffled
   order; each is joined to an earlier one by a bridge that weighs
   neither block's [w], and vertex labels are shuffled. *)
let dense_graph rng ~variant =
  let sized =
    List.mapi
      (fun i size ->
        let w = (i + variant) mod 4 in
        if (i + variant) mod 2 = 0 then Clique (size, w) else Random (size, w))
      [ 1; 62; 63; 64; 125; 126; 127 ]
  in
  let blocks = Array.of_list (Cycle 127 :: Mixed 40 :: sized) in
  Prng.shuffle rng blocks;
  let size_of = function
    | Clique (size, _) | Random (size, _) -> size
    | Cycle size | Mixed size -> size
  in
  let weight_of = function
    | Clique (_, w) | Random (_, w) -> w
    | Cycle _ -> 1
    | Mixed _ -> -1
  in
  let first = Array.make (Array.length blocks) 0 in
  for k = 1 to Array.length blocks - 1 do
    first.(k) <- first.(k - 1) + size_of blocks.(k - 1)
  done;
  let n = Array.fold_left (fun acc blk -> acc + size_of blk) 0 blocks in
  let label = Array.init n Fun.id in
  Prng.shuffle rng label;
  let b = Graph.create_builder ~n in
  let edge u v ~weight = Graph.add_edge b label.(u) label.(v) ~weight in
  Array.iteri
    (fun k blk ->
      let v i = first.(k) + i in
      let size = size_of blk in
      let pairs f =
        for i = 0 to size - 1 do
          for j = i + 1 to size - 1 do
            f (v i) (v j)
          done
        done
      in
      match blk with
      | Cycle _ ->
        for i = 0 to size - 1 do
          edge (v i) (v ((i + 1) mod size)) ~weight:1
        done
      | Clique (_, w) -> pairs (fun a c -> edge a c ~weight:w)
      | Random (_, w) ->
        pairs (fun a c -> if Prng.int rng 2 = 0 then edge a c ~weight:w)
      | Mixed _ -> pairs (fun a c -> edge a c ~weight:(1 + Prng.int rng 3)))
    blocks;
  for k = 1 to Array.length blocks - 1 do
    let j = Prng.int rng k in
    let wk = weight_of blocks.(k) and wj = weight_of blocks.(j) in
    let weight =
      List.find (fun w -> w <> wk && w <> wj) [ Prng.int rng 4; 0; 1; 2; 3 ]
    in
    edge
      (first.(k) + Prng.int rng (size_of blocks.(k)))
      (first.(j) + Prng.int rng (size_of blocks.(j)))
      ~weight
  done;
  Graph.freeze b

let test_dense_all_pairs () =
  let rng = Prng.create ~seed:0x0d5e in
  for variant = 0 to 3 do
    let g = dense_graph rng ~variant in
    let n = Graph.n_vertices g in
    let o = Graph.Oracle.create g in
    for src = 0 to n - 1 do
      let expect = Graph.dijkstra g ~src in
      for dst = 0 to n - 1 do
        let got = Graph.Oracle.distance o ~src ~dst in
        if got <> expect.(dst) then
          Alcotest.failf "variant %d: distance %d -> %d is %d, expected %d"
            variant src dst got expect.(dst)
      done
    done;
    (* Every vertex is the entry vertex of its own comp's pairs. *)
    check Alcotest.int
      (Printf.sprintf "variant %d: one probe per vertex" variant)
      n (Graph.Oracle.probes o)
  done;
  (* One bridgeless dense block: a random query mix costs one probe per
     distinct source. *)
  let n = 127 in
  let b = Graph.create_builder ~n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if j = i + 1 || Prng.int rng 2 = 0 then Graph.add_edge b i j ~weight:2
    done
  done;
  Graph.add_edge b 0 (n - 1) ~weight:2;
  let g = Graph.freeze b in
  let o = Graph.Oracle.create g in
  let seen = Hashtbl.create 16 in
  for _ = 1 to 300 do
    let src = Prng.int rng n and dst = Prng.int rng n in
    Hashtbl.replace seen src ();
    check Alcotest.int
      (Printf.sprintf "clique-like block: distance %d -> %d" src dst)
      (Graph.distance g ~src ~dst)
      (Graph.Oracle.distance o ~src ~dst)
  done;
  check Alcotest.int "probes = distinct sources" (Hashtbl.length seen)
    (Graph.Oracle.probes o)

(* The underlays the experiments price transfers on: both weightings
   of each transit-stub family, 40 sources x 200 destinations. *)
let test_transit_stub_pairs () =
  let module TS = P2plb_topology.Transit_stub in
  List.iter
    (fun (name, params) ->
      for seed = 1 to 5 do
        let topo = TS.generate (Prng.create ~seed) params in
        List.iter
          (fun (weights, g) ->
            let n = Graph.n_vertices g in
            let rng = Prng.create ~seed:(seed + 77) in
            let o = Graph.Oracle.create g in
            for _ = 1 to 40 do
              let src = Prng.int rng n in
              let expect = Graph.dijkstra g ~src in
              for _ = 1 to 200 do
                let dst = Prng.int rng n in
                check Alcotest.int
                  (Printf.sprintf "%s/%s seed %d: %d -> %d" name weights seed
                     src dst)
                  expect.(dst)
                  (Graph.Oracle.distance o ~src ~dst)
              done
            done)
          [ ("hop", topo.TS.graph); ("latency", topo.TS.latency_graph) ]
      done)
    [
      ("ts5k_large", TS.ts5k_large);
      ("ts5k_small", TS.ts5k_small);
      ("scaled-4096", TS.scaled ~n:4096);
    ]

let () =
  Alcotest.run "oracle"
    [
      ( "oracle",
        [
          Alcotest.test_case "agrees with Graph.distance" `Quick
            test_agrees_with_dijkstra;
          Alcotest.test_case "one probe per source" `Quick
            test_one_probe_per_source;
          Alcotest.test_case "probes = distinct sources" `Quick
            test_probes_match_sources;
          Alcotest.test_case "shared base: one Dijkstra per source" `Quick
            test_shared_base_probe_bound;
          Alcotest.test_case "bridged graphs: all pairs" `Quick
            test_bridged_all_pairs;
          Alcotest.test_case "dense uniform comps: all pairs" `Quick
            test_dense_all_pairs;
          Alcotest.test_case "transit-stub underlays" `Quick
            test_transit_stub_pairs;
        ] );
    ]
