module Dht = P2plb_chord.Dht

let target_load ~(lbi : Types.lbi) ~epsilon ~capacity =
  if lbi.c <= 0.0 then invalid_arg "Classify.target_load: total capacity <= 0";
  if epsilon < 0.0 then invalid_arg "Classify.target_load: epsilon < 0";
  ((lbi.l /. lbi.c) +. epsilon) *. capacity

let classify ~lbi ~epsilon ~load ~capacity : Types.node_class =
  let target = target_load ~lbi ~epsilon ~capacity in
  if load > target then Heavy
  else if target -. load >= lbi.l_min then Light
  else Neutral

let classify_node ~lbi ~epsilon n =
  classify ~lbi ~epsilon ~load:(Dht.node_load n) ~capacity:n.Dht.capacity

let census ~lbi ~epsilon dht =
  Dht.fold_nodes dht ~init:(0, 0, 0) ~f:(fun (h, l, u) n ->
      match classify_node ~lbi ~epsilon n with
      | Types.Heavy -> (h + 1, l, u)
      | Types.Light -> (h, l + 1, u)
      | Types.Neutral -> (h, l, u + 1))
