module Classify = P2plb.Classify
module Types = P2plb.Types
module Dht = P2plb_chord.Dht

let check = Alcotest.check
let feq = Alcotest.float 1e-9

let lbi : Types.lbi = { l = 100.0; c = 50.0; l_min = 1.0 }

let test_target_load () =
  (* T_i = (L/C + eps) * C_i *)
  check feq "eps=0" 20.0 (Classify.target_load ~lbi ~epsilon:0.0 ~capacity:10.0);
  check feq "eps=0.5" 25.0
    (Classify.target_load ~lbi ~epsilon:0.5 ~capacity:10.0)

let test_target_validation () =
  Alcotest.check_raises "zero capacity system"
    (Invalid_argument "Classify.target_load: total capacity <= 0") (fun () ->
      ignore
        (Classify.target_load
           ~lbi:{ l = 1.0; c = 0.0; l_min = 0.0 }
           ~epsilon:0.0 ~capacity:1.0));
  Alcotest.check_raises "negative epsilon"
    (Invalid_argument "Classify.target_load: epsilon < 0") (fun () ->
      ignore (Classify.target_load ~lbi ~epsilon:(-0.1) ~capacity:1.0))

let classify load = Classify.classify ~lbi ~epsilon:0.0 ~load ~capacity:10.0

let test_heavy () =
  check Alcotest.bool "above target" true (classify 20.5 = Types.Heavy);
  check Alcotest.bool "exactly at target is not heavy" true
    (classify 20.0 <> Types.Heavy)

let test_light () =
  (* light iff T - L >= L_min = 1 *)
  check Alcotest.bool "well below" true (classify 10.0 = Types.Light);
  check Alcotest.bool "exactly L_min below" true (classify 19.0 = Types.Light)

let test_neutral () =
  (* 0 <= T - L < L_min *)
  check Alcotest.bool "just under target" true (classify 19.5 = Types.Neutral);
  check Alcotest.bool "at target" true (classify 20.0 = Types.Neutral)

let test_census () =
  let dht : unit Dht.t = Dht.create ~seed:1 in
  for i = 0 to 9 do
    ignore (Dht.join dht ~capacity:1.0 ~underlay:i ~n_vs:2)
  done;
  (* give every VS load 1.0: total 20, total capacity 10, so each node
     carries 2.0 = its exact target: all neutral *)
  Dht.fold_vs dht ~init:() ~f:(fun () v -> Dht.set_vs_load dht v 1.0);
  let lbi : Types.lbi = { l = 20.0; c = 10.0; l_min = 1.0 } in
  let h, l, n = Classify.census ~lbi ~epsilon:0.0 dht in
  check Alcotest.(triple int int int) "all neutral" (0, 0, 10) (h, l, n);
  (* shift load: move node 0's VSs to node 1 -> node 1 heavy, node 0 light *)
  let n0 = Dht.node dht 0 in
  List.iter
    (fun v -> Dht.transfer_vs dht v ~to_node:1)
    n0.Dht.vss;
  let h, l, n = Classify.census ~lbi ~epsilon:0.0 dht in
  check Alcotest.(triple int int int) "one heavy one light" (1, 1, 8) (h, l, n)

let test_classes_partition =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"every (load, capacity) has exactly one class"
       ~count:1000
       QCheck.(pair (float_range 0.0 100.0) (float_range 0.1 100.0))
       (fun (load, capacity) ->
         match Classify.classify ~lbi ~epsilon:0.0 ~load ~capacity with
         | Types.Heavy -> load > Classify.target_load ~lbi ~epsilon:0.0 ~capacity
         | Types.Light ->
           Classify.target_load ~lbi ~epsilon:0.0 ~capacity -. load
           >= lbi.Types.l_min
         | Types.Neutral ->
           let gap = Classify.target_load ~lbi ~epsilon:0.0 ~capacity -. load in
           gap >= 0.0 && gap < lbi.Types.l_min))

let () =
  Alcotest.run "classify"
    [
      ( "classification",
        [
          Alcotest.test_case "target load" `Quick test_target_load;
          Alcotest.test_case "validation" `Quick test_target_validation;
          Alcotest.test_case "heavy" `Quick test_heavy;
          Alcotest.test_case "light" `Quick test_light;
          Alcotest.test_case "neutral" `Quick test_neutral;
          Alcotest.test_case "census" `Quick test_census;
          test_classes_partition;
        ] );
    ]
