module Dht = P2plb_chord.Dht

let[@inline] target_load ~(lbi : Types.lbi) ~epsilon ~capacity =
  if lbi.c <= 0.0 then invalid_arg "Classify.target_load: total capacity <= 0";
  if epsilon < 0.0 then invalid_arg "Classify.target_load: epsilon < 0";
  ((lbi.l /. lbi.c) +. epsilon) *. capacity

let[@inline] classify ~lbi ~epsilon ~load ~capacity : Types.node_class =
  let target = target_load ~lbi ~epsilon ~capacity in
  if load > target then Heavy
  else if target -. load >= lbi.l_min then Light
  else Neutral

let classify_node ~lbi ~epsilon n =
  classify ~lbi ~epsilon ~load:(Dht.node_load n) ~capacity:n.Dht.capacity

(* [classify] at each entry of the node table; both are inlined, so
   no per-node float is boxed. *)
let census ~lbi ~epsilon dht =
  let loads = Dht.node_loads dht in
  let n = Float.Array.length loads in
  let heavy = ref 0 and light = ref 0 in
  for i = 0 to n - 1 do
    let load = Float.Array.get loads i
    and capacity = (Dht.alive_nth dht i).Dht.capacity in
    match classify ~lbi ~epsilon ~load ~capacity with
    | Types.Heavy -> incr heavy
    | Types.Light -> incr light
    | Types.Neutral -> ()
  done;
  (!heavy, !light, n - !heavy - !light)
