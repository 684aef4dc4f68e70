module Prng = P2plb_prng.Prng
module Dht = P2plb_chord.Dht
module Graph = P2plb_topology.Graph
module Transit_stub = P2plb_topology.Transit_stub
module Landmark = P2plb_landmark.Landmark
module Workload = P2plb_workload.Workload

type config = {
  n_nodes : int;
  vs_per_node : int;
  topology : Transit_stub.params;
  workload : Workload.config;
  landmark_m : int;
  landmark_spread : bool;
}

let default =
  {
    n_nodes = 4096;
    vs_per_node = 5;
    topology = Transit_stub.ts5k_large;
    workload = Workload.default_gaussian;
    landmark_m = 15;
    landmark_spread = false;
  }

type t = {
  rng : Prng.t;
  dht : Dht.t;
  topo : Transit_stub.t;
  oracle : Graph.Oracle.t;
  space : Landmark.space;
  config : config;
}

exception Too_few_stubs of { stubs : int; n_nodes : int }

let build ?base ~seed config =
  if config.n_nodes < 1 then invalid_arg "Scenario.build: n_nodes < 1";
  let master = Prng.create ~seed in
  let topo_rng = Prng.split master in
  let member_rng = Prng.split master in
  let load_rng = Prng.split master in
  let landmark_rng = Prng.split master in
  let lb_rng = Prng.split master in
  (* The topology, distance oracle and landmark space depend only on
     [seed] and [config] (each on its own split stream), so a caller
     re-building the same scenario — e.g. the proximity experiments
     running aware and ignorant modes over one graph instance — can
     donate them from a previous build.  The oracle's bridge
     decomposition and memoised rows then carry across runs: built
     once per graph, not per mode. *)
  let topo, oracle, base_space =
    match base with
    | Some b -> (b.topo, b.oracle, Some b.space)
    | None ->
      let topo = Transit_stub.generate topo_rng config.topology in
      (topo, Graph.Oracle.create topo.Transit_stub.graph, None)
  in
  let stubs = topo.Transit_stub.stub_vertices in
  let n_nodes = config.n_nodes in
  if Array.length stubs < n_nodes then
    raise (Too_few_stubs { stubs = Array.length stubs; n_nodes });
  (* Overlay nodes are end hosts: distinct random stub vertices. *)
  let picks =
    Prng.sample_distinct member_rng ~n:config.n_nodes
      ~universe:(Array.length stubs)
  in
  let dht = Dht.create ~seed:(seed lxor 0x5bd1e995) in
  Dht.join_all dht
    (Array.init config.n_nodes (fun j ->
         (Workload.sample_capacity member_rng, stubs.(picks.(j)))))
    ~n_vs:config.vs_per_node;
  Workload.assign_loads load_rng config.workload dht;
  (* Landmark vectors are measured on the latency graph — what real
     RTT probes would see; transfer costs stay on the hop graph. *)
  let space =
    match base_space with
    | Some space -> space
    | None ->
      let landmarks =
        if config.landmark_spread then
          Landmark.select_spread landmark_rng topo.Transit_stub.latency_graph
            ~m:config.landmark_m
        else
          Landmark.select_random landmark_rng topo.Transit_stub.latency_graph
            ~m:config.landmark_m
      in
      Landmark.make_space topo.Transit_stub.latency_graph ~landmarks
  in
  { rng = lb_rng; dht; topo; oracle; space; config }

let join_nodes t n =
  let stubs = t.topo.Transit_stub.stub_vertices in
  for _ = 1 to n do
    let capacity = Workload.sample_capacity t.rng in
    let underlay = stubs.(Prng.int t.rng (Array.length stubs)) in
    ignore
      (Dht.join t.dht ~capacity ~underlay ~n_vs:t.config.vs_per_node)
  done

let crash_nodes t n =
  for _ = 1 to n do
    let alive = Dht.n_nodes t.dht in
    if alive >= 2 then begin
      let victim = (Dht.alive_nth t.dht (Prng.int t.rng alive)).Dht.node_id in
      if Dht.can_depart t.dht victim then Dht.crash t.dht victim
    end
  done

(* Both read the node table, whose entry [i] is the [i]-th alive node. *)
let unit_loads t =
  let loads = Dht.node_loads t.dht in
  let a = Array.make (Float.Array.length loads) 0.0 in
  for i = 0 to Array.length a - 1 do
    a.(i) <- Float.Array.get loads i /. (Dht.alive_nth t.dht i).Dht.capacity
  done;
  a

let loads_by_capacity t =
  let loads = Dht.node_loads t.dht in
  Array.init (Float.Array.length loads) (fun i ->
      ((Dht.alive_nth t.dht i).Dht.capacity, Float.Array.get loads i))
