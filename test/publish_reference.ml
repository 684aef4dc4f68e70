(* A list reference for the order [Dht.publish] delivers a batch in.

   A batch is a list of (key, payload) in put order.  A VS sees the
   pairs whose key its region contains, keys counter-clockwise from
   the region's last point and the pairs under one key in put order:
   what a node that kept each put as it arrived would read back from
   its own arc.  [delivery] reads every VS's pairs, VSs in ring
   order. *)

module Id = P2plb_idspace.Id
module Region = P2plb_idspace.Region
module Dht = P2plb_chord.Dht

let in_region region puts =
  let last = Region.last region in
  List.filter (fun (k, _) -> Region.contains region k) puts
  |> List.stable_sort (fun (a, _) (b, _) ->
         Int.compare (Id.distance_cw a last) (Id.distance_cw b last))

(* (owner id, key, payload), owners in ring order. *)
let delivery dht puts =
  List.rev (Dht.fold_vs dht ~init:[] ~f:(fun acc v -> v :: acc))
  |> List.concat_map (fun (v : Dht.vs) ->
         List.map
           (fun (k, p) -> (v.Dht.vs_id, k, p))
           (in_region (Dht.region_of_vs dht v) puts))

(* Stages [(from, key, payload)] puts in order and publishes them as
   one batch: the hops, and what [Dht.publish] delivered, as (owner
   id, key, payload) in delivery order. *)
let publish ?hops dht puts =
  let a = Array.of_list puts in
  Array.iter (fun (from, key, _) -> Dht.stage dht ~from ~key) a;
  let got = ref [] in
  let total =
    Dht.publish ?hops dht ~f:(fun i v ->
        let _, k, p = a.(i) in
        got := (v.Dht.vs_id, k, p) :: !got)
  in
  (total, List.rev !got)
