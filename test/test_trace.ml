module Dht = P2plb_chord.Dht
module Store = P2plb_chord.Store
module Arrivals = P2plb_workload.Arrivals
module Trace = P2plb_obs.Trace

let check = Alcotest.check

let build_dht ~seed ~nodes =
  let dht : unit Dht.t = Dht.create ~seed in
  for i = 0 to nodes - 1 do
    ignore (Dht.join dht ~capacity:1.0 ~underlay:i ~n_vs:3)
  done;
  dht

let test_validation () =
  Alcotest.check_raises "negative arrivals"
    (Invalid_argument "Arrivals.create: negative arrival rate") (fun () ->
      ignore
        (Arrivals.create ~seed:1
           { Arrivals.default with Arrivals.arrivals_per_epoch = -1.0 }));
  Alcotest.check_raises "bad departure prob"
    (Invalid_argument "Arrivals.create: departure_prob out of [0,1]") (fun () ->
      ignore
        (Arrivals.create ~seed:1 { Arrivals.default with Arrivals.departure_prob = 1.5 }))

let test_epoch_populates_store () =
  let dht = build_dht ~seed:1 ~nodes:20 in
  let store = Store.create ~replication:2 () in
  let tr = Arrivals.create ~seed:2 Arrivals.default in
  let stats = Arrivals.epoch tr dht store in
  check Alcotest.bool "objects arrived" true (stats.Arrivals.arrived > 100);
  check Alcotest.int "store matches trace" (Arrivals.live_objects tr)
    (Store.n_objects store);
  check Alcotest.bool "loads applied" true (Dht.total_load dht > 0.0);
  check Alcotest.bool "load = stored bytes" true
    (abs_float (Dht.total_load dht -. Store.total_bytes store) < 1e-6)

let test_departures_shrink () =
  let dht = build_dht ~seed:3 ~nodes:20 in
  let store = Store.create ~replication:2 () in
  let tr =
    Arrivals.create ~seed:4
      {
        Arrivals.default with
        Arrivals.arrivals_per_epoch = 500.0;
        departure_prob = 0.0;
      }
  in
  ignore (Arrivals.epoch tr dht store);
  let n1 = Arrivals.live_objects tr in
  (* now pure departures *)
  let tr2 =
    Arrivals.create ~seed:5
      { Arrivals.default with Arrivals.arrivals_per_epoch = 0.0; departure_prob = 0.5 }
  in
  ignore tr2;
  (* same trace object continues: flip its config via a fresh trace is
     not possible (config is immutable), so instead run many epochs of
     the default and check steady state below *)
  check Alcotest.bool "populated" true (n1 > 300)

let test_steady_state () =
  (* live count converges toward arrivals / departure_prob *)
  let dht = build_dht ~seed:6 ~nodes:20 in
  let store = Store.create ~replication:1 () in
  let config =
    {
      Arrivals.default with
      Arrivals.arrivals_per_epoch = 100.0;
      departure_prob = 0.2;
    }
  in
  let tr = Arrivals.create ~seed:7 config in
  for _ = 1 to 40 do
    ignore (Arrivals.epoch tr dht store)
  done;
  let expected = 100.0 /. 0.2 in
  let live = float_of_int (Arrivals.live_objects tr) in
  check Alcotest.bool
    (Printf.sprintf "steady state ~%g (got %g)" expected live)
    true
    (live > 0.6 *. expected && live < 1.4 *. expected)

let test_accounting () =
  let dht = build_dht ~seed:8 ~nodes:20 in
  let store = Store.create ~replication:2 () in
  let tr = Arrivals.create ~seed:9 Arrivals.default in
  let total_in = ref 0.0 and total_out = ref 0.0 in
  for _ = 1 to 10 do
    let s = Arrivals.epoch tr dht store in
    total_in := !total_in +. s.Arrivals.bytes_in;
    total_out := !total_out +. s.Arrivals.bytes_out;
    check Alcotest.bool "non-negative flows" true
      (s.Arrivals.bytes_in >= 0.0 && s.Arrivals.bytes_out >= 0.0)
  done;
  check Alcotest.bool "conservation" true
    (abs_float (Store.total_bytes store -. (!total_in -. !total_out)) < 1e-6)

let test_balancing_keeps_up_with_trace () =
  (* the full loop: trace drives loads, periodic LB keeps heavy at 0 *)
  let module TS = P2plb_topology.Transit_stub in
  let module Scenario = P2plb.Scenario in
  let config =
    {
      Scenario.default with
      n_nodes = 200;
      topology =
        {
          TS.ts5k_large with
          TS.transit_domains = 3;
          transit_nodes_per_domain = 2;
          stub_domains_per_transit = 3;
          mean_stub_size = 15;
        };
    }
  in
  let s = Scenario.build ~seed:10 config in
  let store = Store.create ~replication:2 () in
  let tr = Arrivals.create ~seed:11 Arrivals.default in
  for e = 1 to 5 do
    ignore (Arrivals.epoch tr s.Scenario.dht store);
    (* Zipf tails make some single objects exceed every deficit: a
       node holding one cannot shed it to anyone, so a small residual
       of stuck-heavy nodes is correct behaviour (an object is the
       indivisible unit below the virtual server).  Assert the bulk is
       balanced, not perfection. *)
    let r = P2plb.Multiround.run ~max_rounds:3 s in
    let first = List.hd r.P2plb.Multiround.rounds in
    check Alcotest.bool
      (Printf.sprintf "epoch %d mostly balanced (%d -> %d)" e
         first.P2plb.Multiround.heavy_before r.P2plb.Multiround.final_heavy)
      true
      (r.P2plb.Multiround.final_heavy <= 15
      && r.P2plb.Multiround.final_heavy
         <= Int.max 1 (first.P2plb.Multiround.heavy_before / 2))
  done

(* ---- trace-summary input failures ---------------------------------------
   `lb_sim trace-summary` (and trace-analyze) fail through
   Trace.load_jsonl; these pin the loader's contract so the CLI's
   exit-1 paths have something concrete to stand on. *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1))
  in
  go 0

let test_load_jsonl_missing_file () =
  match Trace.load_jsonl "no-such-trace.jsonl" with
  | Ok _ -> Alcotest.fail "missing file accepted"
  | Error e ->
    check Alcotest.bool
      (Printf.sprintf "diagnostic is non-empty (%S)" e)
      true
      (String.length e > 0)

let test_load_jsonl_truncated_file () =
  (* emit a real trace, then chop the final line mid-object — the
     write died half way.  The loader must reject it with a
     line-numbered diagnostic, not silently return a prefix. *)
  let t = Trace.create () in
  let sp = Trace.begin_span t "phase/vst" in
  Trace.point t "vst/transfer" ~attrs:[ ("hops", Trace.Int 2) ];
  Trace.end_span t sp;
  let full = Trace.to_jsonl t in
  let truncated = String.sub full 0 (String.length full - 12) in
  let path = "truncated-trace.jsonl" in
  let oc = open_out path in
  output_string oc truncated;
  close_out oc;
  match Trace.load_jsonl path with
  | Ok _ -> Alcotest.fail "truncated trace accepted"
  | Error e ->
    check Alcotest.bool
      (Printf.sprintf "diagnostic names the line (%S)" e)
      true (contains e "line")

(* A trace without the schema header (the retired v1 encoding) is
   refused, from a string and from a file, and the diagnostic names
   the header the loader wanted. *)
let test_headerless_trace_rejected () =
  let v1 =
    {|{"t":0,"seq":0,"kind":"begin","name":"phase/vst","span":0,"attrs":{}}|}
    ^ "\n"
  in
  let expect_rejected what = function
    | Ok _ -> Alcotest.fail (what ^ ": headerless trace accepted")
    | Error e ->
      check Alcotest.bool
        (Printf.sprintf "%s: diagnostic names the header (%S)" what e)
        true
        (contains e "{\"v\":2}")
  in
  expect_rejected "parse_jsonl" (Trace.parse_jsonl v1);
  let path = "headerless-trace.jsonl" in
  let oc = open_out path in
  output_string oc v1;
  close_out oc;
  expect_rejected "load_jsonl" (Trace.load_jsonl path)

let () =
  Alcotest.run "trace"
    [
      ( "trace",
        [
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "epoch populates" `Quick
            test_epoch_populates_store;
          Alcotest.test_case "arrivals grow" `Quick test_departures_shrink;
          Alcotest.test_case "steady state" `Quick test_steady_state;
          Alcotest.test_case "accounting" `Quick test_accounting;
          Alcotest.test_case "LB keeps up" `Quick
            test_balancing_keeps_up_with_trace;
        ] );
      ( "loader",
        [
          Alcotest.test_case "missing file rejected" `Quick
            test_load_jsonl_missing_file;
          Alcotest.test_case "truncated file rejected" `Quick
            test_load_jsonl_truncated_file;
          Alcotest.test_case "headerless trace rejected" `Quick
            test_headerless_trace_rejected;
        ] );
    ]
