module Prng = P2plb_prng.Prng
module Dist = P2plb_prng.Dist
module Id = P2plb_idspace.Id
module Store = P2plb_chord.Store
module Trace = P2plb_obs.Trace

let check = Alcotest.check

(* A seeded object workload: publishes [n] objects keyed [first ..
   first + n - 1], each an exponential size scaled down by its Zipf
   popularity rank (as in examples/storage_cluster.ml), then sets every
   VS's load to the bytes it primarily stores. *)
let publish rng store dht ~first ~n =
  for i = first to first + n - 1 do
    let size = Dist.exponential rng ~mean:4.0 in
    let rank = Dist.zipf rng ~n:1000 ~s:0.9 in
    Store.insert store dht
      ~key:(Id.hash_key i "trace-obj")
      ~size:(size /. float_of_int rank)
  done;
  Store.apply_primary_loads store dht

let test_balancing_keeps_up () =
  (* the full loop: a growing object catalogue drives loads, periodic
     LB keeps heavy near 0 *)
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
  let rng = Prng.create ~seed:11 in
  for e = 1 to 5 do
    publish rng store s.Scenario.dht ~first:((e - 1) * 200) ~n:200;
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

(* ---- trace-analyze input failures ---------------------------------------
   `lb_sim trace-analyze` fails through Trace.load_jsonl; these pin the
   loader's contract so the CLI's exit-1 paths have something concrete
   to stand on. *)

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
          Alcotest.test_case "LB keeps up" `Quick
            test_balancing_keeps_up;
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
