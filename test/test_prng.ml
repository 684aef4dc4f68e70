module Prng = P2plb_prng.Prng
module Dist = P2plb_prng.Dist

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ---- determinism ------------------------------------------------------ *)

let test_same_seed_same_stream () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same output" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_different_seeds_differ () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Prng.bits64 a <> Prng.bits64 b then differs := true
  done;
  check Alcotest.bool "streams differ" true !differs

let test_copy_replays () =
  let a = Prng.create ~seed:7 in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  let xs = List.init 20 (fun _ -> Prng.bits64 a) in
  let ys = List.init 20 (fun _ -> Prng.bits64 b) in
  check Alcotest.(list int64) "copy replays" xs ys

let test_split_independent_of_parent_future () =
  (* The child stream must not change if we later draw from the parent. *)
  let p1 = Prng.create ~seed:9 in
  let c1 = Prng.split p1 in
  let out1 = List.init 10 (fun _ -> Prng.bits64 c1) in
  let p2 = Prng.create ~seed:9 in
  let c2 = Prng.split p2 in
  ignore (Prng.bits64 p2);
  let out2 = List.init 10 (fun _ -> Prng.bits64 c2) in
  check Alcotest.(list int64) "child independent" out1 out2

(* ---- bounds ------------------------------------------------------------ *)

let test_int_bounds () =
  let t = Prng.create ~seed:3 in
  for _ = 1 to 1000 do
    let x = Prng.int t 17 in
    check Alcotest.bool "0 <= x < 17" true (x >= 0 && x < 17)
  done

let test_int_rejects_nonpositive () =
  let t = Prng.create ~seed:3 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound <= 0")
    (fun () -> ignore (Prng.int t 0))

let test_int_in_bounds () =
  let t = Prng.create ~seed:4 in
  for _ = 1 to 1000 do
    let x = Prng.int_in t ~lo:(-5) ~hi:5 in
    check Alcotest.bool "in [-5,5]" true (x >= -5 && x <= 5)
  done

let test_unit_float_range () =
  let t = Prng.create ~seed:5 in
  for _ = 1 to 1000 do
    let x = Prng.unit_float t in
    check Alcotest.bool "[0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_int_covers_all_values () =
  let t = Prng.create ~seed:6 in
  let seen = Array.make 7 false in
  for _ = 1 to 1000 do
    seen.(Prng.int t 7) <- true
  done;
  check Alcotest.bool "all 7 values appear" true (Array.for_all Fun.id seen)

(* ---- shuffle / sampling ------------------------------------------------ *)

let test_shuffle_is_permutation () =
  let t = Prng.create ~seed:8 in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle t a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  check Alcotest.(array int) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_sample_distinct_small () =
  let t = Prng.create ~seed:9 in
  let s = Prng.sample_distinct t ~n:10 ~universe:1000 in
  check Alcotest.int "size" 10 (Array.length s);
  let sorted = Array.copy s in
  Array.sort Int.compare sorted;
  for i = 1 to 9 do
    check Alcotest.bool "distinct" true (sorted.(i) <> sorted.(i - 1))
  done

let test_sample_distinct_dense () =
  let t = Prng.create ~seed:10 in
  let s = Prng.sample_distinct t ~n:90 ~universe:100 in
  check Alcotest.int "size" 90 (Array.length s);
  let tbl = Hashtbl.create 100 in
  Array.iter
    (fun x ->
      check Alcotest.bool "in range" true (x >= 0 && x < 100);
      check Alcotest.bool "fresh" false (Hashtbl.mem tbl x);
      Hashtbl.add tbl x ())
    s

let test_sample_distinct_full () =
  let t = Prng.create ~seed:11 in
  let s = Prng.sample_distinct t ~n:20 ~universe:20 in
  let sorted = Array.copy s in
  Array.sort Int.compare sorted;
  check Alcotest.(array int) "whole universe" (Array.init 20 (fun i -> i)) sorted

let test_choose_uniformish () =
  let t = Prng.create ~seed:12 in
  let counts = Array.make 4 0 in
  for _ = 1 to 4000 do
    let x = Prng.choose t [| 0; 1; 2; 3 |] in
    counts.(x) <- counts.(x) + 1
  done;
  Array.iter
    (fun c -> check Alcotest.bool "roughly uniform" true (c > 800 && c < 1200))
    counts

(* ---- allocation -------------------------------------------------------- *)

(* Minor words allocated by [f ()]. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* The bounded draws and [bernoulli] return immediates and keep their
   [int64] temporaries unboxed, so none of them allocates: 10,000 draws
   of each, one with a bound that rejects about a quarter of its raw
   draws, and a shuffle of 1,000 elements. *)
let test_draws_allocate_nothing () =
  let t = Prng.create ~seed:13 in
  let a = Array.init 1000 Fun.id in
  let cases =
    [
      ("int", fun () -> ignore (Prng.int t 7));
      ("int, bound 2^61 + 1", fun () -> ignore (Prng.int t ((1 lsl 61) + 1)));
      ("int_in", fun () -> ignore (Prng.int_in t ~lo:(-5) ~hi:5));
      ("choose", fun () -> ignore (Prng.choose t a));
      ("bernoulli", fun () -> ignore (Prng.bernoulli t 0.42));
    ]
  in
  List.iter
    (fun (name, draw) ->
      let words =
        minor_words (fun () ->
            for _ = 1 to 10_000 do
              draw ()
            done)
      in
      check (Alcotest.float 0.0) (name ^ " allocates nothing") 0.0 words)
    cases;
  check (Alcotest.float 0.0) "shuffle allocates nothing" 0.0
    (minor_words (fun () -> Prng.shuffle t a))

(* ---- distributions ----------------------------------------------------- *)

let sample_mean n f =
  let t = Prng.create ~seed:77 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. f t
  done;
  !acc /. float_of_int n

let test_normal_mean () =
  let m = sample_mean 20000 (fun t -> Dist.normal t ~mean:5.0 ~stddev:2.0) in
  check Alcotest.bool "mean ~5" true (abs_float (m -. 5.0) < 0.1)

let test_normal_stddev () =
  let t = Prng.create ~seed:78 in
  let xs = Array.init 20000 (fun _ -> Dist.normal t ~mean:0.0 ~stddev:3.0) in
  let mean = Array.fold_left ( +. ) 0.0 xs /. 20000.0 in
  let sd =
    sqrt
      (Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs
      /. 20000.0)
  in
  check Alcotest.bool "stddev ~3" true (abs_float (sd -. 3.0) < 0.15)

let test_normal_pos_nonnegative () =
  let t = Prng.create ~seed:79 in
  for _ = 1 to 1000 do
    check Alcotest.bool "x >= 0" true
      (Dist.normal_pos t ~mean:0.1 ~stddev:1.0 >= 0.0)
  done

let test_exponential_mean () =
  let m = sample_mean 20000 (fun t -> Dist.exponential t ~mean:4.0) in
  check Alcotest.bool "mean ~4" true (abs_float (m -. 4.0) < 0.2)

let test_pareto_support () =
  let t = Prng.create ~seed:80 in
  for _ = 1 to 1000 do
    check Alcotest.bool "x >= scale" true
      (Dist.pareto t ~shape:1.5 ~scale:2.0 >= 2.0)
  done

let test_pareto_mean_parameterisation () =
  (* shape 3 => finite variance, the sample mean converges reasonably *)
  let m = sample_mean 50000 (fun t -> Dist.pareto_mean t ~shape:3.0 ~mean:6.0) in
  check Alcotest.bool "mean ~6" true (abs_float (m -. 6.0) < 0.3)

let test_zipf_range_and_skew () =
  let t = Prng.create ~seed:81 in
  let counts = Array.make 11 0 in
  for _ = 1 to 5000 do
    let k = Dist.zipf t ~n:10 ~s:1.2 in
    check Alcotest.bool "1..n" true (k >= 1 && k <= 10);
    counts.(k) <- counts.(k) + 1
  done;
  check Alcotest.bool "rank 1 most popular" true (counts.(1) > counts.(2));
  check Alcotest.bool "rank 2 beats rank 10" true (counts.(2) > counts.(10))

let test_weighted_index () =
  let t = Prng.create ~seed:82 in
  let counts = Array.make 3 0 in
  for _ = 1 to 9000 do
    let i = Dist.weighted_index t [| 1.0; 2.0; 0.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  check Alcotest.int "zero weight never drawn" 0 counts.(2);
  check Alcotest.bool "ratio ~2x" true
    (float_of_int counts.(1) /. float_of_int counts.(0) > 1.6)

let test_dirichlet_sums_to_one () =
  let t = Prng.create ~seed:83 in
  for _ = 1 to 100 do
    let f = Dist.dirichlet_fractions t 17 in
    check Alcotest.int "arity" 17 (Array.length f);
    Array.iter (fun x -> check Alcotest.bool ">=0" true (x >= 0.0)) f;
    let s = Array.fold_left ( +. ) 0.0 f in
    check Alcotest.bool "sums to 1" true (abs_float (s -. 1.0) < 1e-9)
  done

(* ---- qcheck properties ------------------------------------------------- *)

let prop_int_in_range =
  QCheck.Test.make ~name:"Prng.int always within bound" ~count:500
    QCheck.(pair small_int (int_range 1 10000))
    (fun (seed, bound) ->
      let t = Prng.create ~seed in
      let x = Prng.int t bound in
      x >= 0 && x < bound)

let prop_shuffle_preserves_multiset =
  QCheck.Test.make ~name:"shuffle preserves elements" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let t = Prng.create ~seed in
      let a = Array.of_list l in
      Prng.shuffle t a;
      List.sort Int.compare (Array.to_list a) = List.sort Int.compare l)

let () =
  Alcotest.run "prng"
    [
      ( "determinism",
        [
          Alcotest.test_case "same seed, same stream" `Quick
            test_same_seed_same_stream;
          Alcotest.test_case "different seeds differ" `Quick
            test_different_seeds_differ;
          Alcotest.test_case "copy replays" `Quick test_copy_replays;
          Alcotest.test_case "split independence" `Quick
            test_split_independent_of_parent_future;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int rejects bound<=0" `Quick
            test_int_rejects_nonpositive;
          Alcotest.test_case "int_in bounds" `Quick test_int_in_bounds;
          Alcotest.test_case "unit_float range" `Quick test_unit_float_range;
          Alcotest.test_case "int covers values" `Quick
            test_int_covers_all_values;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "shuffle permutes" `Quick
            test_shuffle_is_permutation;
          Alcotest.test_case "sample_distinct sparse" `Quick
            test_sample_distinct_small;
          Alcotest.test_case "sample_distinct dense" `Quick
            test_sample_distinct_dense;
          Alcotest.test_case "sample_distinct full" `Quick
            test_sample_distinct_full;
          Alcotest.test_case "choose uniform-ish" `Quick test_choose_uniformish;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "draws allocate nothing" `Quick
            test_draws_allocate_nothing;
        ] );
      ( "distributions",
        [
          Alcotest.test_case "normal mean" `Quick test_normal_mean;
          Alcotest.test_case "normal stddev" `Quick test_normal_stddev;
          Alcotest.test_case "normal_pos >= 0" `Quick
            test_normal_pos_nonnegative;
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "pareto support" `Quick test_pareto_support;
          Alcotest.test_case "pareto mean param" `Quick
            test_pareto_mean_parameterisation;
          Alcotest.test_case "zipf range+skew" `Quick test_zipf_range_and_skew;
          Alcotest.test_case "weighted_index" `Quick test_weighted_index;
          Alcotest.test_case "dirichlet sums to 1" `Quick
            test_dirichlet_sums_to_one;
        ] );
      ( "properties",
        [ qtest prop_int_in_range; qtest prop_shuffle_preserves_multiset ] );
    ]
