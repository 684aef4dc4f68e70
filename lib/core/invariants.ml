module Id = P2plb_idspace.Id
module Region = P2plb_idspace.Region
module Dht = P2plb_chord.Dht
module Ktree = P2plb_ktree.Ktree

let ring_partition dht =
  let total =
    Dht.fold_vs dht ~init:0 ~f:(fun acc v ->
        acc + Region.len (Dht.region_of_vs dht v))
  in
  if total = Id.space_size then Ok ()
  else
    Error
      (Printf.sprintf "regions cover %d of %d identifiers" total Id.space_size)

let ownership dht =
  let err = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !err = None then err := Some s) fmt in
  (* every ring VS is in its owner's list, owner alive *)
  Dht.fold_vs dht ~init:() ~f:(fun () v ->
      if not (Dht.is_alive dht v.Dht.owner) then
        fail "VS %#x owned by dead node %d" v.Dht.vs_id v.Dht.owner
      else begin
        let owner = Dht.node dht v.Dht.owner in
        if not (List.exists (fun x -> x.Dht.vs_id = v.Dht.vs_id) owner.Dht.vss)
        then fail "VS %#x missing from node %d's list" v.Dht.vs_id v.Dht.owner
      end);
  (* every listed VS is on the ring with the right owner *)
  Dht.fold_nodes dht ~init:() ~f:(fun () n ->
      List.iter
        (fun v ->
          match Dht.vs_of_id dht v.Dht.vs_id with
          | None -> fail "node %d lists VS %#x not on the ring" n.Dht.node_id v.Dht.vs_id
          | Some ring_v ->
            if ring_v.Dht.owner <> n.Dht.node_id then
              fail "node %d lists VS %#x owned by %d" n.Dht.node_id v.Dht.vs_id
                ring_v.Dht.owner)
        n.Dht.vss);
  match !err with None -> Ok () | Some e -> Error e

let loads_nonnegative dht =
  Dht.fold_vs dht ~init:(Ok ()) ~f:(fun acc v ->
      match acc with
      | Error _ -> acc
      | Ok () ->
        if v.Dht.load < 0.0 then
          Error (Printf.sprintf "VS %#x has negative load %g" v.Dht.vs_id v.Dht.load)
        else acc)

(* Relative slack of the load-sum checks: the same loads summed in
   another order round differently. *)
let tolerance = 1e-6

let load_conservation ~expected_total dht =
  let total = Dht.total_load dht in
  let bound = tolerance *. Float.max 1.0 (abs_float expected_total) in
  if abs_float (total -. expected_total) <= bound then Ok ()
  else
    Error
      (Printf.sprintf "total load %g, expected %g (tolerance %g)" total
         expected_total bound)

let dead_detached dht =
  let err = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !err = None then err := Some s) fmt in
  List.iter
    (fun (n : Dht.node) ->
      if n.Dht.alive then fail "dead_nodes lists alive node %d" n.Dht.node_id;
      match n.Dht.vss with
      | [] -> ()
      | v :: _ ->
        fail "dead node %d still lists VS %#x" n.Dht.node_id v.Dht.vs_id)
    (Dht.dead_nodes dht);
  match !err with None -> Ok () | Some e -> Error e

let live_load_accounted dht =
  (* Under churn, total load is conserved but must all be reachable
     through *alive* nodes' VS lists — nothing stranded on the dead. *)
  let live =
    Dht.fold_nodes dht ~init:0.0 ~f:(fun acc n -> acc +. Dht.node_load n)
  in
  let total = Dht.total_load dht in
  let bound = tolerance *. Float.max 1.0 (abs_float total) in
  if abs_float (live -. total) <= bound then Ok ()
  else
    Error
      (Printf.sprintf "live nodes hold %g of %g total load" live total)

let vs_snapshot dht =
  let pairs =
    Dht.fold_vs dht ~init:[] ~f:(fun acc v -> (v.Dht.vs_id, v.Dht.owner) :: acc)
  in
  List.sort (fun (a, _) (b, _) -> Int.compare a b) pairs

let vs_conservation ~before ?(crashes = 0) dht =
  let err = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !err = None then err := Some s) fmt in
  (* 1. No duplication: every ring VS is listed exactly once across
     all alive nodes' lists — a double-applied transfer would leave a
     second listing behind, which [ownership] alone cannot see when
     both listings name the same owner. *)
  let listed : (Id.t, int) Hashtbl.t = Hashtbl.create 256 in
  Dht.fold_nodes dht ~init:() ~f:(fun () n ->
      List.iter
        (fun (v : Dht.vs) ->
          let c =
            match Hashtbl.find_opt listed v.Dht.vs_id with
            | Some c -> c
            | None -> 0
          in
          Hashtbl.replace listed v.Dht.vs_id (c + 1))
        n.Dht.vss);
  Dht.fold_vs dht ~init:() ~f:(fun () v ->
      match Hashtbl.find_opt listed v.Dht.vs_id with
      | Some 1 -> ()
      | Some c -> fail "VS %#x listed %d times (duplicated)" v.Dht.vs_id c
      | None -> fail "VS %#x on the ring but listed by no node" v.Dht.vs_id);
  (* 2. No materialisation: every current VS existed before the round
     (balancing moves VSs, it never mints them). *)
  let before_ids : (Id.t, unit) Hashtbl.t = Hashtbl.create 256 in
  List.iter (fun (id, _) -> Hashtbl.replace before_ids id ()) before;
  Dht.fold_vs dht ~init:() ~f:(fun () v ->
      if not (Hashtbl.mem before_ids v.Dht.vs_id) then
        fail "VS %#x appeared from nowhere (duplicated or minted)" v.Dht.vs_id);
  (* 3. No loss: a VS may only disappear by crash absorption (its
     region and load fold into the successor when a node fail-stops);
     with no crashes since the snapshot, the before/after id sets must
     match exactly. *)
  if crashes = 0 then
    List.iter
      (fun (id, owner) ->
        match Dht.vs_of_id dht id with
        | Some _ -> ()
        | None ->
          fail "VS %#x (owned by %d) vanished without a crash" id owner)
      before;
  match !err with None -> Ok () | Some e -> Error e

let all ?tree:kt ?expected_total ?vs_before ?(crashes = 0) dht =
  let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e in
  let* () = ring_partition dht in
  let* () = ownership dht in
  let* () = dead_detached dht in
  let* () = live_load_accounted dht in
  let* () = loads_nonnegative dht in
  let* () =
    match expected_total with
    | Some expected_total -> load_conservation ~expected_total dht
    | None -> Ok ()
  in
  let* () =
    match vs_before with
    | Some before -> vs_conservation ~before ~crashes dht
    | None -> Ok ()
  in
  match kt with Some t -> Ktree.check_consistent t dht | None -> Ok ()
