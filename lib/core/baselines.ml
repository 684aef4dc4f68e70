module Prng = P2plb_prng.Prng
module Dht = P2plb_chord.Dht
module Graph = P2plb_topology.Graph
module Histogram = P2plb_metrics.Histogram

type result = {
  hist : Histogram.t;
  moved_load : float;
  transfers : int;
  heavy_before : int;
  heavy_after : int;
  rounds : int;
}

let absolute_epsilon (lbi : Types.lbi) =
  Controller.default.Controller.epsilon_rel *. lbi.l /. lbi.c

let heavy_nodes ~lbi ~epsilon dht =
  List.filter
    (fun n -> Classify.classify_node ~lbi ~epsilon n = Types.Heavy)
    (Dht.alive_nodes dht)

let count_heavy ~lbi ~epsilon dht = List.length (heavy_nodes ~lbi ~epsilon dht)

type acc = {
  h : Histogram.t;
  mutable moved : float;
  mutable n_transfers : int;
}

let new_acc () = { h = Histogram.create (); moved = 0.0; n_transfers = 0 }

let record_move acc ~oracle ~src_underlay ~dst_underlay ~load =
  let hops =
    Graph.Oracle.distance oracle ~src:src_underlay ~dst:dst_underlay
  in
  Histogram.add acc.h ~bin:hops ~weight:load;
  acc.moved <- acc.moved +. load;
  acc.n_transfers <- acc.n_transfers + 1

let transfer acc ~oracle dht v ~from_node ~to_node ~load =
  let src = Dht.node dht from_node and dst = Dht.node dht to_node in
  Dht.transfer_vs dht v ~to_node;
  record_move acc ~oracle ~src_underlay:src.Dht.underlay
    ~dst_underlay:dst.Dht.underlay ~load

(* ---- CFS-style shedding ---------------------------------------------- *)

let cfs_shed ~oracle dht =
  let lbi = Lbi.exact dht in
  let epsilon = absolute_epsilon lbi in
  let heavy_before = count_heavy ~lbi ~epsilon dht in
  let acc = new_acc () in
  let rounds = ref 0 in
  let continue = ref true in
  while !continue && !rounds < 50 do
    incr rounds;
    let heavies = heavy_nodes ~lbi ~epsilon dht in
    if heavies = [] then continue := false
    else begin
      let shed_something = ref false in
      List.iter
        (fun n ->
          let target =
            Classify.target_load ~lbi ~epsilon ~capacity:n.Dht.capacity
          in
          (* Remove lightest VSs first until below target (CFS keeps
             the node in the ring: never sheds the last VS). *)
          let continue_shedding = ref true in
          while !continue_shedding do
            let load = Dht.node_load n in
            if load <= target then continue_shedding := false
            else begin
              match n.Dht.vss with
              | [] | [ _ ] -> continue_shedding := false
              | first :: rest ->
                (* The lightest VS, the first of equal loads in [vss]
                   order. *)
                let v =
                  List.fold_left
                    (fun m x ->
                      if Float.compare x.Dht.load m.Dht.load < 0 then x else m)
                    first rest
                in
                let vload = v.Dht.load in
                (* The successor VS's owner absorbs the region+load; the
                   node holds two VSs or more, so that is another VS. *)
                let s =
                  Dht.owner_of_key dht (P2plb_idspace.Id.add v.Dht.vs_id 1)
                in
                let dst = Dht.node dht s.Dht.owner in
                Dht.remove_vs dht v;
                record_move acc ~oracle ~src_underlay:n.Dht.underlay
                  ~dst_underlay:dst.Dht.underlay ~load:vload;
                shed_something := true
            end
          done)
        heavies;
      if not !shed_something then continue := false
    end
  done;
  {
    hist = acc.h;
    moved_load = acc.moved;
    transfers = acc.n_transfers;
    heavy_before;
    heavy_after = count_heavy ~lbi ~epsilon dht;
    rounds = !rounds;
  }

(* ---- Rao et al. ------------------------------------------------------- *)

(* The heaviest VS of [n] whose load fits within [deficit]. *)
let best_fitting_vs (n : Dht.node) ~deficit =
  List.fold_left
    (fun best v ->
      if v.Dht.load <= deficit && v.Dht.load > 0.0 then
        match best with
        | Some b when b.Dht.load >= v.Dht.load -> best
        | _ -> Some v
      else best)
    None n.Dht.vss

let deficit_of ~lbi ~epsilon (n : Dht.node) =
  Classify.target_load ~lbi ~epsilon ~capacity:n.Dht.capacity
  -. Dht.node_load n

let rao_one_to_one ~rng ~oracle dht =
  let lbi = Lbi.exact dht in
  let epsilon = absolute_epsilon lbi in
  let heavy_before = count_heavy ~lbi ~epsilon dht in
  let nodes = Array.of_list (Dht.alive_nodes dht) in
  let probe_budget = 64 * Array.length nodes in
  let acc = new_acc () in
  let probes = ref 0 in
  (* Light nodes probe random nodes; a hit moves one best-fitting VS. *)
  while !probes < probe_budget do
    incr probes;
    let light = Prng.choose rng nodes in
    let peer = Prng.choose rng nodes in
    if light.Dht.node_id <> peer.Dht.node_id then begin
      let light_class = Classify.classify_node ~lbi ~epsilon light in
      let peer_class = Classify.classify_node ~lbi ~epsilon peer in
      if light_class = Types.Light && peer_class = Types.Heavy then begin
        let deficit = deficit_of ~lbi ~epsilon light in
        match best_fitting_vs peer ~deficit with
        | Some v ->
          transfer acc ~oracle dht v ~from_node:peer.Dht.node_id
            ~to_node:light.Dht.node_id ~load:v.Dht.load
        | None -> ()
      end
    end
  done;
  {
    hist = acc.h;
    moved_load = acc.moved;
    transfers = acc.n_transfers;
    heavy_before;
    heavy_after = count_heavy ~lbi ~epsilon dht;
    rounds = !probes;
  }

let rao_one_to_many ~rng ~oracle dht =
  let lbi = Lbi.exact dht in
  let epsilon = absolute_epsilon lbi in
  let heavy_before = count_heavy ~lbi ~epsilon dht in
  let acc = new_acc () in
  let heavies = Array.of_list (heavy_nodes ~lbi ~epsilon dht) in
  Prng.shuffle rng heavies;
  let all = Array.of_list (Dht.alive_nodes dht) in
  Array.iter
    (fun h ->
      let target =
        Classify.target_load ~lbi ~epsilon ~capacity:h.Dht.capacity
      in
      let need = Dht.node_load h -. target in
      if need > 0.0 then begin
        let loads =
          Array.of_list (List.map (fun v -> (v, v.Dht.load)) h.Dht.vss)
        in
        let shed = Excess.choose_shed ~keep_at_least:0 ~loads need in
        (* A random directory of currently-light nodes. *)
        let directory =
          Array.to_list
            (Array.init 16 (fun _ -> Prng.choose rng all))
          |> List.filter (fun n ->
                 n.Dht.node_id <> h.Dht.node_id
                 && Classify.classify_node ~lbi ~epsilon n = Types.Light)
        in
        let deficits =
          List.map (fun n -> (n, ref (deficit_of ~lbi ~epsilon n))) directory
        in
        List.iter
          (fun (v, vload) ->
            (* best fit: smallest sufficient deficit in the directory *)
            let best =
              List.fold_left
                (fun best (n, d) ->
                  if !d >= vload then
                    match best with
                    | Some (_, bd) when !bd <= !d -> best
                    | _ -> Some (n, d)
                  else best)
                None deficits
            in
            match best with
            | Some (n, d) ->
              transfer acc ~oracle dht v ~from_node:h.Dht.node_id
                ~to_node:n.Dht.node_id ~load:vload;
              d := !d -. vload
            | None -> ())
          shed
      end)
    heavies;
  {
    hist = acc.h;
    moved_load = acc.moved;
    transfers = acc.n_transfers;
    heavy_before;
    heavy_after = count_heavy ~lbi ~epsilon dht;
    rounds = 1;
  }

let rao_many_to_many ~oracle dht =
  let lbi = Lbi.exact dht in
  let epsilon = absolute_epsilon lbi in
  let heavy_before = count_heavy ~lbi ~epsilon dht in
  (* One global pool: exactly the rendezvous pairing run at a single
     point, proximity-blind. *)
  let sheds, lights =
    Dht.fold_nodes dht ~init:([], []) ~f:(fun (ss, ls) n ->
        match Classify.classify_node ~lbi ~epsilon n with
        | Types.Neutral -> (ss, ls)
        | Types.Light ->
          ( ss,
            Types.
              {
                deficit = deficit_of ~lbi ~epsilon n;
                light_node = n.Dht.node_id;
              }
            :: ls )
        | Types.Heavy ->
          let target =
            Classify.target_load ~lbi ~epsilon ~capacity:n.Dht.capacity
          in
          let need = Dht.node_load n -. target in
          let loads =
            Array.of_list (List.map (fun v -> (v, v.Dht.load)) n.Dht.vss)
          in
          let shed = Excess.choose_shed ~keep_at_least:0 ~loads need in
          ( List.map
              (fun (vs, vs_load) ->
                Types.{ vs_load; vs; heavy_node = n.Dht.node_id })
              shed
            @ ss,
            ls ))
  in
  let pool = Pairing.of_entries sheds lights in
  let assignments, _ = Pairing.pair ~l_min:lbi.Types.l_min pool in
  let acc = new_acc () in
  (* Each VS is in one assignment, and transfers keep the ring's ids,
     so every handle is still the ring's record of a VS its heavy node
     owns. *)
  List.iter
    (fun (a : Types.assignment) ->
      transfer acc ~oracle dht a.a_vs ~from_node:a.a_from ~to_node:a.a_to
        ~load:a.a_load)
    assignments;
  {
    hist = acc.h;
    moved_load = acc.moved;
    transfers = acc.n_transfers;
    heavy_before;
    heavy_after = count_heavy ~lbi ~epsilon dht;
    rounds = 1;
  }
