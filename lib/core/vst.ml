module Dht = P2plb_chord.Dht
module Ktree = P2plb_ktree.Ktree
module Graph = P2plb_topology.Graph
module Histogram = P2plb_metrics.Histogram
module Faults = P2plb_sim.Faults

(* The transactional protocol's phases, reified so each step has an
   explicit construction site: the runtime guard below and the R8 lint
   both key off these constructors.  Ordering is per assignment —
   Prepare from a fresh state, Transfer after Prepare, Commit after
   Transfer — and the aborted/rollback paths simply never advance. *)
type phase = Prepare | Transfer | Commit

let phase_name p =
  match p with Prepare -> "PREPARE" | Transfer -> "TRANSFER" | Commit -> "COMMIT"

let advance state p =
  let legal =
    match (!state, p) with
    | None, Prepare | Some Prepare, Transfer | Some Transfer, Commit -> true
    | (None | Some _), _ -> false
  in
  if not legal then
    invalid_arg
      (Printf.sprintf "Vst.advance: illegal transition to %s" (phase_name p));
  state := Some p

type result = {
  hist : Histogram.t;
  moved_load : float;
  transfers : int;
  skipped : int;
  skipped_vs_gone : int;
  skipped_owner_changed : int;
  skipped_dest_dead : int;
  aborted : int;
  aborted_prepare_lost : int;
  aborted_partitioned : int;
  aborted_src_crashed : int;
  aborted_dest_crashed : int;
  aborted_commit_lost : int;
  deduped : int;
  restructure_messages : int;
}

let apply ?tree ?obs ?faults ?oracle dht assignments =
  let trace_point name attrs =
    match obs with
    | None -> ()
    | Some o -> P2plb_obs.Trace.point (P2plb_obs.Obs.trace o) name ~attrs
  in
  let hist = Histogram.create () in
  let moved_load = ref 0.0 in
  let transfers = ref 0 in
  let skipped_vs_gone = ref 0 in
  let skipped_owner_changed = ref 0 in
  let skipped_dest_dead = ref 0 in
  let aborted_prepare_lost = ref 0 in
  let aborted_partitioned = ref 0 in
  let aborted_src_crashed = ref 0 in
  let aborted_dest_crashed = ref 0 in
  let aborted_commit_lost = ref 0 in
  let deduped = ref 0 in
  let restructure = ref 0 in
  (* Per-assignment sequence numbers: the pair (vs id, seq) names one
     transaction, so a replayed TRANSFER is recognised and dropped.  A
     replay arrives right behind its original, so the handler only has
     to remember the last transaction it installed. *)
  let seq = ref 0 in
  let installed_seq = ref 0 in
  (* Mid-window fail-stop, mirroring the multiround crash guard: never
     empty the ring, never strand every VS on the victim.  [false]
     when the victim was shielded (the transaction then proceeds). *)
  let crash_endpoint id =
    Dht.is_alive dht id
    && Dht.n_nodes dht > 1
    && List.length (Dht.node dht id).Dht.vss < Dht.n_vs dht
    && begin
         Dht.crash dht id;
         true
       end
  in
  let abort counter cause =
    incr counter;
    trace_point "vst/abort"
      [
        ("cause", P2plb_obs.Trace.Str cause); ("seq", P2plb_obs.Trace.Int !seq);
      ]
  in
  (* The fault plan's hooks.  Without a plan every message is
     delivered, no crash window fires and nothing is duplicated; a plan
     whose rates are zero draws no randomness, so both run the protocol
     below to the same result.  [send] is one protocol message: a loss
     aborts the transaction, blamed on the partition cut when one
     separates the endpoints and on [counter] otherwise. *)
  let send ~src ~dst counter cause =
    match faults with
    | None -> true
    | Some f -> (
      match Faults.send_between f ~src ~dst with
      | Faults.Delivered _ -> true
      | Faults.Lost ->
        if Faults.cut f ~a:src ~b:dst then
          abort aborted_partitioned "partitioned"
        else abort counter cause;
        false)
  in
  let window_crash () =
    match faults with
    | None -> Faults.No_crash
    | Some f -> Faults.crash_in_window f
  in
  let duplicated () =
    match faults with None -> false | Some f -> Faults.duplicated f
  in
  (* The light node's TRANSFER handler: installs the VS once per
     (vs, seq) transaction and drops any replay of it.  [true] when
     this delivery was installed. *)
  let receive_transfer (a : Types.assignment) seq =
    if !installed_seq = seq then begin
      incr deduped;
      trace_point "vst/dedup" [ ("seq", P2plb_obs.Trace.Int seq) ];
      false
    end
    else begin
      Dht.transfer_vs dht ~vs_id:a.a_vs_id ~to_node:a.a_to;
      installed_seq := seq;
      true
    end
  in
  (* A committed transfer's accounting. *)
  let commit (a : Types.assignment) (v : Dht.vs) ~hops =
    Histogram.add hist ~bin:hops ~weight:v.Dht.load;
    trace_point "vst/transfer"
      [
        ("hops", P2plb_obs.Trace.Int hops);
        ("load", P2plb_obs.Trace.Float v.Dht.load);
      ];
    (match obs with
    | None -> ()
    | Some o ->
      P2plb_obs.Registry.hist_add (P2plb_obs.Obs.metrics o) "vst/hop_cost"
        ~bin:hops ~weight:v.Dht.load);
    moved_load := !moved_load +. v.Dht.load;
    incr transfers;
    match tree with
    | None -> ()
    | Some t ->
      (* Lazy migration re-homes every KT node planted in the VS. *)
      restructure :=
        !restructure + (Ktree.host_nodes t a.a_vs_id * (Ktree.k t + 1))
  in
  List.iter
    (fun (a : Types.assignment) ->
      match Dht.vs_of_id dht a.a_vs_id with
      | Some v when v.Dht.owner = a.a_from && Dht.is_alive dht a.a_to -> (
        let src = Dht.node dht a.a_from and dst = Dht.node dht a.a_to in
        let hops =
          match oracle with
          | Some o ->
            Graph.Oracle.distance o ~src:src.Dht.underlay
              ~dst:dst.Dht.underlay
          | None -> 0
        in
        incr seq;
        let pstate = ref None in
        advance pstate Prepare;
        (* PREPARE: the heavy owner proposes (vs, seq) to the light
           node; nothing has moved yet, so a drop aborts cleanly. *)
        if send ~src:a.a_from ~dst:a.a_to aborted_prepare_lost "prepare_lost"
        then
          (* mid-transfer crash window: a fail-stop between PREPARE and
             COMMIT must leave the VS either safely home (dst died:
             nothing moved) or absorbed by the ring's crash handling
             (src died with the VS still home) — never
             half-transferred. *)
          let crashed =
            match window_crash () with
            | Faults.No_crash -> false
            | Faults.Crash_dst ->
              if crash_endpoint a.a_to then begin
                abort aborted_dest_crashed "dest_crashed";
                true
              end
              else false
            | Faults.Crash_src ->
              if crash_endpoint a.a_from then begin
                abort aborted_src_crashed "src_crashed";
                true
              end
              else false
          in
          if not crashed then begin
            advance pstate Transfer;
            (* TRANSFER: the VS moves.  A duplicated delivery carries
               the same sequence number and reaches the same handler,
               whose seq check drops it instead of re-applying. *)
            let deliveries = if duplicated () then 2 else 1 in
            let installed = ref 0 in
            for _ = 1 to deliveries do
              if receive_transfer a !seq then incr installed
            done;
            (* COMMIT: the light node acknowledges each TRANSFER it
               installed; until the ack lands the heavy owner keeps the
               right to reclaim, so a lost ack rolls the VS back
               instead of stranding it. *)
            for _ = 1 to !installed do
              if send ~src:a.a_to ~dst:a.a_from aborted_commit_lost
                   "commit_lost"
              then begin
                advance pstate Commit;
                commit a v ~hops
              end
              else Dht.transfer_vs dht ~vs_id:a.a_vs_id ~to_node:a.a_from
            done
          end)
      | None ->
        incr skipped_vs_gone;
        trace_point "vst/skip" [ ("cause", P2plb_obs.Trace.Str "vs_gone") ]
      | Some v when v.Dht.owner <> a.a_from ->
        incr skipped_owner_changed;
        trace_point "vst/skip"
          [ ("cause", P2plb_obs.Trace.Str "owner_changed") ]
      | Some _ ->
        incr skipped_dest_dead;
        trace_point "vst/skip" [ ("cause", P2plb_obs.Trace.Str "dest_dead") ])
    assignments;
  (* Lazy migration: the tree re-checks its planting after the whole
     VSA/VST round (hosts are VS ids, so structure is unchanged; this
     re-validates coverage after ring-state changes). *)
  (match tree with None -> () | Some t -> Ktree.refresh t dht);
  let aborted =
    !aborted_prepare_lost + !aborted_partitioned + !aborted_src_crashed
    + !aborted_dest_crashed + !aborted_commit_lost
  in
  (match obs with
  | None -> ()
  | Some o ->
    let m = P2plb_obs.Obs.metrics o in
    P2plb_obs.Registry.add (P2plb_obs.Registry.counter m "vst/transfers")
      !transfers;
    P2plb_obs.Registry.add (P2plb_obs.Registry.counter m "vst/skipped")
      (!skipped_vs_gone + !skipped_owner_changed + !skipped_dest_dead);
    P2plb_obs.Registry.accum (P2plb_obs.Registry.gauge m "vst/moved_load")
      !moved_load;
    P2plb_obs.Registry.add (P2plb_obs.Registry.counter m "vst/aborted")
      aborted;
    P2plb_obs.Registry.add (P2plb_obs.Registry.counter m "vst/deduped")
      !deduped);
  {
    hist;
    moved_load = !moved_load;
    transfers = !transfers;
    skipped = !skipped_vs_gone + !skipped_owner_changed + !skipped_dest_dead;
    skipped_vs_gone = !skipped_vs_gone;
    skipped_owner_changed = !skipped_owner_changed;
    skipped_dest_dead = !skipped_dest_dead;
    aborted;
    aborted_prepare_lost = !aborted_prepare_lost;
    aborted_partitioned = !aborted_partitioned;
    aborted_src_crashed = !aborted_src_crashed;
    aborted_dest_crashed = !aborted_dest_crashed;
    aborted_commit_lost = !aborted_commit_lost;
    deduped = !deduped;
    restructure_messages = !restructure;
  }

let mean_transfer_distance r =
  if r.moved_load <= 0.0 then 0.0
  else
    List.fold_left
      (fun acc (bin, w) -> acc +. (float_of_int bin *. w))
      0.0
      (Histogram.bins r.hist)
    /. r.moved_load
