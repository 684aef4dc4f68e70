module Id = P2plb_idspace.Id
module Id_map = Map.Make (Int)

type obj = {
  key : Id.t;
  size : float;
  mutable holder_nodes : Dht.node_id list; (* primary first *)
}

type t = {
  r : int;
  mutable objects : obj list Id_map.t; (* key -> versions *)
  mutable count : int;
  mutable bytes : float;
}

let create ~replication () =
  if replication < 1 then invalid_arg "Store.create: replication < 1";
  {
    r = replication;
    objects = Id_map.empty;
    count = 0;
    bytes = 0.0;
  }

let replication t = t.r
let n_objects t = t.count
let total_bytes t = t.bytes

(* The [r] distinct physical nodes holding key [k]: the owner's node,
   then the owners of successive ring regions. *)
let placement t dht key =
  let rec walk vs_id acc remaining guard =
    if remaining = 0 || guard = 0 then List.rev acc
    else
      let v =
        match Dht.vs_of_id dht vs_id with
        | Some v -> v
        | None -> Dht.owner_of_key dht vs_id
      in
      let acc, remaining =
        if List.mem v.Dht.owner acc then (acc, remaining)
        else (v.Dht.owner :: acc, remaining - 1)
      in
      (* next VS clockwise *)
      let next = (Dht.owner_of_key dht (Id.add v.Dht.vs_id 1)).Dht.vs_id in
      walk next acc remaining (guard - 1)
  in
  let owner = Dht.owner_of_key dht key in
  walk owner.Dht.vs_id [] t.r (Dht.n_vs dht)

let insert t dht ~key ~size =
  if size < 0.0 then invalid_arg "Store.insert: negative size";
  let o = { key; size; holder_nodes = placement t dht key } in
  let existing =
    match Id_map.find_opt key t.objects with Some l -> l | None -> []
  in
  t.objects <- Id_map.add key (o :: existing) t.objects;
  t.count <- t.count + 1;
  t.bytes <- t.bytes +. size

let holders t ~key =
  match Id_map.find_opt key t.objects with
  | None -> []
  | Some versions -> List.map (fun o -> o.holder_nodes) versions

let alive_holders dht o =
  List.filter (fun n -> Dht.is_alive dht n) o.holder_nodes

let is_available t dht ~key =
  match Id_map.find_opt key t.objects with
  | None -> false
  | Some versions -> List.exists (fun o -> alive_holders dht o <> []) versions

type repair_stats = {
  objects_checked : int;
  re_replicated : int;
  bytes_copied : float;
  lost : int;
}

let repair t dht =
  let checked = ref 0 in
  let re_replicated = ref 0 in
  let bytes_copied = ref 0.0 in
  let lost = ref 0 in
  let repaired =
    Id_map.fold
      (fun key versions acc ->
        let survivors =
          List.filter_map
            (fun o ->
              incr checked;
              match alive_holders dht o with
              | [] ->
                (* every holder died: unrecoverable *)
                incr lost;
                t.count <- t.count - 1;
                t.bytes <- t.bytes -. o.size;
                None
              | alive ->
                let target = placement t dht o.key in
                let added =
                  List.filter (fun n -> not (List.mem n alive)) target
                in
                if added <> [] then begin
                  incr re_replicated;
                  bytes_copied :=
                    !bytes_copied +. (o.size *. float_of_int (List.length added))
                end;
                o.holder_nodes <- target;
                Some o)
            versions
        in
        match survivors with
        | [] -> acc
        | _ :: _ -> Id_map.add key survivors acc)
      t.objects Id_map.empty
  in
  t.objects <- repaired;
  {
    objects_checked = !checked;
    re_replicated = !re_replicated;
    bytes_copied = !bytes_copied;
    lost = !lost;
  }

let availability t dht =
  if t.count = 0 then 1.0
  else begin
    let alive = ref 0 and total = ref 0 in
    Id_map.iter
      (fun _ versions ->
        List.iter
          (fun o ->
            incr total;
            if alive_holders dht o <> [] then incr alive)
          versions)
      t.objects;
    float_of_int !alive /. float_of_int !total
  end

let apply_primary_loads t dht =
  Dht.fold_vs dht ~init:() ~f:(fun () v -> Dht.set_vs_load dht v 0.0);
  Id_map.iter
    (fun key versions ->
      let owner = Dht.owner_of_key dht key in
      let total = List.fold_left (fun acc o -> acc +. o.size) 0.0 versions in
      Dht.add_vs_load dht owner total)
    t.objects
