module Classify = P2plb.Classify
module Types = P2plb.Types
module Dht = P2plb_chord.Dht
module Lbi = P2plb.Lbi
module Scenario = P2plb.Scenario

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

(* Words a call allocates, minor and major.  [Gc.allocated_bytes]
   counts minor words only at a minor collection, so one on each side
   makes the count exact; the words the reading itself allocates, those
   of an empty call, are taken off. *)
let words f =
  let count f =
    Gc.minor ();
    let b0 = Gc.allocated_bytes () in
    let r = f () in
    Gc.minor ();
    let b1 = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity r);
    (b1 -. b0) /. float_of_int (Sys.word_size / 8)
  in
  count f -. count ignore

(* Both read the node table, one load per alive node: with the table
   current, the census allocates its result and a few words, not a
   tuple per node, and [unit_loads] only its result, a float array of
   one word per node and a header.  After a load change the first
   census rebuilds the table in place, which allocates nothing more. *)
let test_reads_allocate_no_per_node_words () =
  let s = Scenario.build ~seed:1 Scenario.default in
  let dht = s.Scenario.dht in
  let n = Dht.n_nodes dht in
  let lbi = Lbi.exact dht in
  let census () = Classify.census ~lbi ~epsilon:0.0 dht in
  check Alcotest.int "4096 nodes" 4096 n;
  ignore (Dht.node_loads dht);
  check Alcotest.bool "census: at most 64 words" true (words census <= 64.0);
  Dht.add_vs_load dht (List.hd (Dht.alive_nth dht 0).Dht.vss) 1.0;
  check Alcotest.bool "census after a load change: at most 64 words" true
    (words census <= 64.0);
  check (Alcotest.float 0.0) "unit_loads: its result array"
    (float_of_int (n + 1))
    (words (fun () -> Scenario.unit_loads s))

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
      ( "allocation",
        [
          Alcotest.test_case
            "census and unit loads allocate no per-node words" `Quick
            test_reads_allocate_no_per_node_words;
        ] );
    ]
