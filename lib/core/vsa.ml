module Prng = P2plb_prng.Prng
module Id = P2plb_idspace.Id
module Dht = P2plb_chord.Dht
module Ktree = P2plb_ktree.Ktree
module Landmark = P2plb_landmark.Landmark
module Hilbert = P2plb_hilbert.Hilbert
module Faults = P2plb_sim.Faults

type mode =
  | Ignorant
  | Aware of {
      space : Landmark.space;
      order : int;
      curve : Hilbert.curve;
      binning : Landmark.binning;
    }

type result = {
  assignments : Types.assignment list;
  unassigned : Pairing.pool;
  n_heavy : int;
  n_light : int;
  n_neutral : int;
  shed_offered : int;
  load_offered : float;
  publish_hops : int;
  direct_messages : int;
  rounds : int;
  stale_dropped : int;
  records_lost : int;
  assignments_lost : int;
}

let default_threshold = 30

(* A record is stale when its reporter died (or a shed VS was absorbed
   or re-owned) between reporting and rendezvous; pairing it would only
   produce a doomed transfer, so the rendezvous drops it.  A VS off
   the ring has owner -1, so the owner test covers it too. *)
let record_fresh dht = function
  | Types.Shed { vs; heavy_node; _ } ->
    Dht.is_alive dht heavy_node && vs.Dht.owner = heavy_node
  | Types.Light l -> Dht.is_alive dht l.Types.light_node

let run ?(threshold = default_threshold) ?(epsilon = 0.0)
    ?(faults = Faults.create ~seed:0 Faults.none) ?(route_messages = false)
    ?sweep ~mode ~rng ~lbi tree dht =
  (* Heal KT nodes orphaned by churn since the last sweep, so record
     injection and the rendezvous sweep run against live hosts. *)
  ignore (Ktree.repair ~route_messages tree dht);
  (* One reliable send: the attempts it took, 0 when it was lost. *)
  let send () =
    match Faults.send faults with
    | Faults.Delivered attempts -> attempts
    | Faults.Lost -> 0
  in
  let records_lost = ref 0 in
  let stale_dropped = ref 0 in
  let assignments_lost = ref 0 in
  let n_heavy = ref 0 and n_light = ref 0 and n_neutral = ref 0 in
  let shed_offered = ref 0 and load_offered = ref 0.0 in
  (* Records handed to KT leaves, in arrival order. *)
  let reports : Types.vsa_record Ktree.Reports.t = Ktree.Reports.create tree in
  (* Scratch arrays, grown on demand: 64 copies of the first element
     pushed, then doubled by appending the array to itself.  An
     [Array.make] of over 256 words filled with a young value would
     force a minor collection, which stops every domain. *)
  let push scratch n x =
    if !n >= Array.length !scratch then
      scratch :=
        if !n = 0 then Array.make 64 x else Array.append !scratch !scratch;
    !scratch.(!n) <- x;
    incr n
  in
  (* Aware mode's published records, in put order. *)
  let recs = ref [||] and n_recs = ref 0 in
  (* Classify every node once and route each of its records, in one
     pass in alive-node order: classification draws no randomness, so
     each record's report_vs draw and send come in record order.  In
     aware mode the pass keeps the records and stages their publishes;
     they are routed after it as one batch, which the pass cannot
     perturb: nothing in it changes the ring. *)
  (* Keys depend only on a node's underlay vertex, the space and the
     curve parameters: one table read per record, the space's table
     shared by every round. *)
  let keys =
    match mode with
    | Ignorant -> None
    | Aware { space; order; curve; binning } ->
      Some (Landmark.keys ~curve ~binning space ~order)
  in
  (* A record of node [n], through its own report_vs draw and send:
     handed to the reporting VS's leaf, or kept and its publish under
     the node's key staged for routing. *)
  let route (n : Dht.node) r =
    let v = Dht.report_vs dht rng n in
    if send () = 0 then incr records_lost
    else
      match keys with
      | None -> Ktree.Reports.add reports v.Dht.vs_id r
      | Some keys ->
        Dht.stage dht ~from:v.Dht.vs_id
          ~key:(Landmark.key keys n.Dht.underlay);
        push recs n_recs r
  in
  let node_loads = Dht.node_loads dht in
  for i = 0 to Float.Array.length node_loads - 1 do
    let n = Dht.alive_nth dht i in
    let load = Float.Array.get node_loads i and capacity = n.Dht.capacity in
    match Classify.classify ~lbi ~epsilon ~load ~capacity with
    | Types.Neutral -> incr n_neutral
    | Types.Light ->
      incr n_light;
      let target = Classify.target_load ~lbi ~epsilon ~capacity in
      let deficit = target -. load in
      route n (Types.Light { deficit; light_node = n.Dht.node_id })
    | Types.Heavy ->
      incr n_heavy;
      let target = Classify.target_load ~lbi ~epsilon ~capacity in
      let loads =
        Array.of_list (List.map (fun v -> (v, v.Dht.load)) n.Dht.vss)
      in
      let shed =
        Excess.choose_shed ~keep_at_least:0 ~loads (load -. target)
      in
      List.iter
        (fun (vs, vs_load) ->
          incr shed_offered;
          load_offered := !load_offered +. vs_load;
          route n (Types.Shed { vs_load; vs; heavy_node = n.Dht.node_id }))
        shed
  done;
  (* Aware mode routes the staged publishes as one batch; each record
     then reaches the leaf of the VS owning its key. *)
  let publish_hops =
    match keys with
    | None -> 0
    | Some _ ->
      let recs = !recs in
      Dht.publish dht ~f:(fun i v ->
          Ktree.Reports.add reports v.Dht.vs_id recs.(i))
  in
  (* Scratch buffers for the per-leaf freshness partition, reused by
     every leaf of the sweep. *)
  let shed_scratch = ref [||] and shed_n = ref 0 in
  let light_scratch = ref [||] and light_n = ref 0 in
  let fresh_pool_slice grouped lo hi =
    shed_n := 0;
    light_n := 0;
    for i = lo to hi - 1 do
      let r = grouped.(i) in
      if record_fresh dht r then
        match r with
        | Types.Shed s -> push shed_scratch shed_n s
        | Types.Light l -> push light_scratch light_n l
      else incr stale_dropped
    done;
    Pairing.of_slices !shed_scratch !shed_n !light_scratch !light_n
  in
  (* Bottom-up rendezvous sweep. *)
  let assignments = ref [] in
  let direct_messages = ref 0 in
  let notify (a : Types.assignment) =
    (* Both endpoints must learn of the pairing; either notification
       timing out abandons the assignment (its entries are simply not
       rebalanced this round). *)
    let m1 = send () in
    let m2 = send () in
    if m1 > 0 && m2 > 0 then begin
      direct_messages := !direct_messages + m1 + m2;
      assignments := a :: !assignments
    end
    else incr assignments_lost
  in
  let pair_here depth pool =
    let made, leftover =
      Pairing.pair ~depth ~l_min:lbi.Types.l_min pool
    in
    List.iter notify made;
    leftover
  in
  let root_pool =
    Ktree.Reports.sweep ?sweep reports ~empty:Pairing.empty
      ~at_leaf:(fun ~depth grouped ~lo ~hi ->
        let pool = fresh_pool_slice grouped lo hi in
        if Pairing.size pool >= threshold then pair_here depth pool else pool)
      ~merge:Pairing.merge
      ~lift:(fun ~hi ~lo pool ->
        (* A KT node pairs its pool once it reaches [threshold], the
           root always.  A run pairs at most once: its leftover is
           settled, so pairing it at a level above changes nothing. *)
        if Pairing.size pool >= threshold then pair_here lo pool
        else if hi = 0 then pair_here 0 pool
        else pool)
  in
  {
    assignments = List.rev !assignments;
    unassigned = root_pool;
    n_heavy = !n_heavy;
    n_light = !n_light;
    n_neutral = !n_neutral;
    shed_offered = !shed_offered;
    load_offered = !load_offered;
    publish_hops;
    direct_messages = !direct_messages;
    rounds = Ktree.rounds_last_sweep tree;
    stale_dropped = !stale_dropped;
    records_lost = !records_lost;
    assignments_lost = !assignments_lost;
  }
