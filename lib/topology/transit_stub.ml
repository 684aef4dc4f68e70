module Prng = P2plb_prng.Prng

type params = {
  intra_latency : int;
      (* latency-graph weight of an intradomain edge; 0 models LAN
         latency as negligible next to WAN RTTs *)
  transit_domains : int;
  transit_nodes_per_domain : int;
  stub_domains_per_transit : int;
  mean_stub_size : int;
  top_edge_prob : float;
  transit_edge_prob : float;
  stub_edge_prob : float;
  attachment_weight : int;
  interdomain_weight_spread : int;
  rtt_scale : int;
}

let ts5k_large =
  {
    intra_latency = 0;
    transit_domains = 5;
    transit_nodes_per_domain = 3;
    stub_domains_per_transit = 5;
    mean_stub_size = 60;
    top_edge_prob = 0.6;
    transit_edge_prob = 0.6;
    stub_edge_prob = 0.42;
    attachment_weight = 3;
    interdomain_weight_spread = 15;
    rtt_scale = 25;
  }

let ts5k_small =
  {
    intra_latency = 0;
    transit_domains = 120;
    transit_nodes_per_domain = 5;
    stub_domains_per_transit = 4;
    mean_stub_size = 2;
    top_edge_prob = 0.02;
    transit_edge_prob = 0.6;
    stub_edge_prob = 0.42;
    attachment_weight = 3;
    interdomain_weight_spread = 15;
    rtt_scale = 25;
  }

let scaled ~n =
  if n < 1 then invalid_arg "Transit_stub.scaled: n < 1";
  (* Many small stub domains on a modest transit core: the shape that
     keeps generation linear in [n] while leaving ~30% headroom of
     stub vertices over the requested overlay size (domain sizes are
     uniform in [1, 2*mean - 1], so with thousands of domains the
     realised total concentrates tightly around the mean). *)
  let mean_stub_size = 10 in
  let transit_nodes = 8 * 4 in
  let per_transit =
    (((13 * n / 10) + (mean_stub_size * transit_nodes) - 1)
    / (mean_stub_size * transit_nodes))
  in
  {
    ts5k_large with
    transit_domains = 8;
    transit_nodes_per_domain = 4;
    stub_domains_per_transit = per_transit;
    mean_stub_size;
    top_edge_prob = 0.4;
  }

type role =
  | Transit of { domain : int }
  | Stub of { domain : int; transit_of : int }

type t = {
  graph : Graph.t;
  latency_graph : Graph.t;
  roles : role array;
  params : params;
  transit_vertices : int array;
  stub_vertices : int array;
}

let interdomain_weight = 3
let intradomain_weight = 1

(* One edge carries both metrics, so the two graphs share their rows:
   the first copy of a pair wins in both. *)
let add_edge builder u v ~hop_w ~lat_w =
  Graph.add_edge2 builder u v ~weight:hop_w ~weight2:lat_w

(* GT-ITM-style flat random graph over [vertices]: each pair with
   probability [edge_prob], plus a random spanning tree for
   connectivity.  All edges are intradomain (weight 1 in both
   metrics). *)
let connect_random rng builder vertices ~edge_prob ~intra_lat =
  let k = Array.length vertices in
  if k > 1 then begin
    let order = Array.copy vertices in
    Prng.shuffle rng order;
    for i = 1 to k - 1 do
      let j = Prng.int rng i in
      add_edge builder order.(i) order.(j) ~hop_w:intradomain_weight
        ~lat_w:intra_lat
    done;
    for i = 0 to k - 2 do
      for j = i + 1 to k - 1 do
        if Prng.bernoulli rng edge_prob then
          add_edge builder vertices.(i) vertices.(j) ~hop_w:intradomain_weight
            ~lat_w:intra_lat
      done
    done
  end

let generate rng p =
  if p.transit_domains < 1 || p.transit_nodes_per_domain < 1 then
    invalid_arg "Transit_stub.generate: empty transit level";
  if p.stub_domains_per_transit < 0 || p.mean_stub_size < 1 then
    invalid_arg "Transit_stub.generate: bad stub parameters";
  if p.rtt_scale < 1 then invalid_arg "Transit_stub.generate: rtt_scale < 1";
  let n_transit = p.transit_domains * p.transit_nodes_per_domain in
  let n_stub_domains = n_transit * p.stub_domains_per_transit in
  let stub_size _ =
    if p.mean_stub_size = 1 then 1
    else Prng.int_in rng ~lo:1 ~hi:((2 * p.mean_stub_size) - 1)
  in
  let stub_sizes = Array.init n_stub_domains stub_size in
  let n_stub = Array.fold_left ( + ) 0 stub_sizes in
  let n = n_transit + n_stub in
  let builder = Graph.create_builder ~n in
  let roles = Array.make n (Transit { domain = 0 }) in

  (* Latency weight of one interdomain edge: base hop weight plus
     GT-ITM-style per-edge jitter, scaled to RTT magnitude. *)
  let interdomain_lat ~hop_w =
    let jitter =
      if p.interdomain_weight_spread <= 0 then 0
      else Prng.int rng ((p.interdomain_weight_spread * p.rtt_scale / 4) + 1)
    in
    (hop_w * p.rtt_scale) + jitter
  in

  (* Vertices [0, n_transit) are transit nodes, domain-major. *)
  let transit_vertex ~domain ~i = (domain * p.transit_nodes_per_domain) + i in
  for domain = 0 to p.transit_domains - 1 do
    for i = 0 to p.transit_nodes_per_domain - 1 do
      roles.(transit_vertex ~domain ~i) <- Transit { domain }
    done
  done;

  (* Intra-transit-domain connectivity.  These links are WAN links
     between backbone routers: hop metric 1 (intradomain, per the
     paper), latency scaled like any long-haul link. *)
  for domain = 0 to p.transit_domains - 1 do
    let vs =
      Array.init p.transit_nodes_per_domain (fun i -> transit_vertex ~domain ~i)
    in
    let k = Array.length vs in
    if k > 1 then begin
      let order = Array.copy vs in
      Prng.shuffle rng order;
      for i = 1 to k - 1 do
        let j = Prng.int rng i in
        add_edge builder order.(i) order.(j) ~hop_w:intradomain_weight
          ~lat_w:(interdomain_lat ~hop_w:intradomain_weight)
      done;
      for i = 0 to k - 2 do
        for j = i + 1 to k - 1 do
          if Prng.bernoulli rng p.transit_edge_prob then
            add_edge builder vs.(i) vs.(j) ~hop_w:intradomain_weight
              ~lat_w:(interdomain_lat ~hop_w:intradomain_weight)
        done
      done
    end
  done;

  (* Inter-transit-domain connectivity: random spanning tree over the
     domains plus per-pair random extras; each domain-level edge lands
     on random transit nodes of the two domains. *)
  let random_transit_of domain =
    transit_vertex ~domain ~i:(Prng.int rng p.transit_nodes_per_domain)
  in
  let add_interdomain u v =
    add_edge builder u v ~hop_w:interdomain_weight
      ~lat_w:(interdomain_lat ~hop_w:interdomain_weight)
  in
  if p.transit_domains > 1 then begin
    let order = Array.init p.transit_domains (fun d -> d) in
    Prng.shuffle rng order;
    for i = 1 to p.transit_domains - 1 do
      let j = Prng.int rng i in
      add_interdomain (random_transit_of order.(i)) (random_transit_of order.(j))
    done;
    for a = 0 to p.transit_domains - 2 do
      for b = a + 1 to p.transit_domains - 1 do
        if Prng.bernoulli rng p.top_edge_prob then
          add_interdomain (random_transit_of a) (random_transit_of b)
      done
    done
  end;

  (* Stub domains: vertices [n_transit, n), one attachment edge up to
     their transit node. *)
  let next = ref n_transit in
  let stub_domain = ref 0 in
  for tv = 0 to n_transit - 1 do
    for _ = 1 to p.stub_domains_per_transit do
      let size = stub_sizes.(!stub_domain) in
      let vs = Array.init size (fun i -> !next + i) in
      Array.iter
        (fun v -> roles.(v) <- Stub { domain = !stub_domain; transit_of = tv })
        vs;
      next := !next + size;
      connect_random rng builder vs ~edge_prob:p.stub_edge_prob
        ~intra_lat:p.intra_latency;
      add_edge builder (Prng.choose rng vs) tv ~hop_w:p.attachment_weight
        ~lat_w:(interdomain_lat ~hop_w:p.attachment_weight);
      incr stub_domain
    done
  done;
  assert (!next = n);

  let graph, latency_graph = Graph.freeze2 builder in
  let transit_vertices = Array.init n_transit (fun i -> i) in
  let stub_vertices = Array.init n_stub (fun i -> n_transit + i) in
  { graph; latency_graph; roles; params = p; transit_vertices; stub_vertices }

let stub_domain_of t v =
  match t.roles.(v) with
  | Stub { domain; _ } -> Some domain
  | Transit _ -> None
