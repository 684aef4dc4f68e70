module Prng = P2plb_prng.Prng
module Id = P2plb_idspace.Id
module Graph = P2plb_topology.Graph
module Hilbert = P2plb_hilbert.Hilbert

type binning = Equal_width | Quantile

type space = {
  landmark_vertices : int array;
  dists : int array array; (* dists.(l).(v): landmark l -> vertex v *)
  d_max : int;
  sorted_dists : int array array; (* per landmark, distances sorted asc *)
  (* The key table of the last [keys] call. *)
  mutable key_table : keys option;
}

and keys = {
  space : space;
  curve : Hilbert.curve;
  binning : binning;
  order : int;
  ids : int array; (* ids.(v): vertex v's key, or -1 before its first read *)
}

let select_random rng g ~m =
  if m < 1 then invalid_arg "Landmark.select_random: m < 1";
  Prng.sample_distinct rng ~n:m ~universe:(Graph.n_vertices g)

let select_spread rng g ~m =
  if m < 1 then invalid_arg "Landmark.select_spread: m < 1";
  let n = Graph.n_vertices g in
  if m > n then invalid_arg "Landmark.select_spread: m > vertices";
  let chosen = Array.make m 0 and is_chosen = Array.make n false in
  chosen.(0) <- Prng.int rng n;
  is_chosen.(chosen.(0)) <- true;
  (* min distance from each vertex to the chosen set so far *)
  let min_dist = Graph.dijkstra g ~src:chosen.(0) in
  for i = 1 to m - 1 do
    (* Farthest vertex from the current set (ignoring unreachable). *)
    let best = ref 0 and best_d = ref (-1) in
    Array.iteri
      (fun v d ->
        if d <> max_int && d > !best_d && not is_chosen.(v) then begin
          best := v;
          best_d := d
        end)
      min_dist;
    chosen.(i) <- !best;
    is_chosen.(!best) <- true;
    let d_new = Graph.dijkstra g ~src:!best in
    Array.iteri (fun v d -> if d < min_dist.(v) then min_dist.(v) <- d) d_new
  done;
  chosen

(* [row] in ascending order, unreachable ([max_int]) entries last, by
   counting sort over [0, d_max] with the caller's [counts] scratch. *)
let counting_sort counts ~d_max row =
  Array.fill counts 0 (d_max + 1) 0;
  Array.iter (fun d -> if d <> max_int then counts.(d) <- counts.(d) + 1) row;
  let s = Array.make (Array.length row) max_int and j = ref 0 in
  for d = 0 to d_max do
    for _ = 1 to counts.(d) do
      s.(!j) <- d;
      incr j
    done
  done;
  s

let make_space g ~landmarks =
  if Array.length landmarks = 0 then invalid_arg "Landmark.make_space: no landmarks";
  let dists = Array.map (fun l -> Graph.dijkstra g ~src:l) landmarks in
  let d_max =
    Array.fold_left
      (fun acc row ->
        Array.fold_left (fun acc d -> if d <> max_int && d > acc then d else acc) acc row)
      0 dists
  in
  (* Edge weights are arbitrary, so distances can dwarf the vertex
     count; counters stay within a few per vertex, else a comparison
     sort is the cheaper one. *)
  let sorted_dists =
    if d_max <= 4 * Graph.n_vertices g then
      let counts = Array.make (d_max + 1) 0 in
      Array.map (counting_sort counts ~d_max) dists
    else
      Array.map
        (fun row ->
          let s = Array.copy row in
          Array.sort Int.compare s;
          s)
        dists
  in
  {
    landmark_vertices = Array.copy landmarks;
    dists;
    d_max;
    sorted_dists;
    key_table = None;
  }

let m s = Array.length s.landmark_vertices
let landmarks s = Array.copy s.landmark_vertices
let max_distance s = s.d_max
let sorted_distances s l = Array.copy s.sorted_dists.(l)

let vector s v = Array.map (fun row -> row.(v)) s.dists

(* Rank of [d] within the sorted per-axis distances, as a cell index:
   boundaries sit at the axis's quantiles. *)
let quantile_cell sorted_row cells d =
  let n = Array.length sorted_row in
  (* count entries < d by binary search *)
  let rec lower lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if sorted_row.(mid) < d then lower (mid + 1) hi else lower lo mid
  in
  let rank = lower 0 n in
  Int.min (cells - 1) (rank * cells / n)

let grid_coords ?(binning = Equal_width) s ~order v =
  if order < 1 then invalid_arg "Landmark.grid_coords: order < 1";
  let cells = 1 lsl order in
  match binning with
  | Equal_width ->
    let scale d =
      let d = if d = max_int then s.d_max else d in
      Int.min (cells - 1) (d * cells / (s.d_max + 1))
    in
    Array.map (fun row -> scale row.(v)) s.dists
  | Quantile ->
    Array.mapi
      (fun l row -> quantile_cell s.sorted_dists.(l) cells row.(v))
      s.dists

let hilbert_number ?(curve = Hilbert.Hilbert) ?binning s ~order v =
  let coords = grid_coords ?binning s ~order v in
  Hilbert.encode_curve curve ~dims:(m s) ~order coords

let dht_key ?(curve = Hilbert.Hilbert) ?binning s ~order v =
  let idx = hilbert_number ~curve ?binning s ~order v in
  let bits = m s * order in
  if bits >= Id.bits then Id.of_int (idx lsr (bits - Id.bits))
  else Id.of_int (idx lsl (Id.bits - bits))

let keys ?(curve = Hilbert.Hilbert) ?(binning = Equal_width) s ~order =
  match s.key_table with
  | Some k when k.curve = curve && k.binning = binning && k.order = order -> k
  | Some _ | None ->
    let ids = Array.make (Array.length s.dists.(0)) (-1) in
    let k = { space = s; curve; binning; order; ids } in
    s.key_table <- Some k;
    k

let key k v =
  let id = k.ids.(v) in
  if id >= 0 then id
  else begin
    let id =
      dht_key ~curve:k.curve ~binning:k.binning k.space ~order:k.order v
    in
    k.ids.(v) <- id;
    id
  end
