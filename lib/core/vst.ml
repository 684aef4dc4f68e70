module Dht = P2plb_chord.Dht
module Ktree = P2plb_ktree.Ktree
module Graph = P2plb_topology.Graph
module Histogram = P2plb_metrics.Histogram
module Faults = P2plb_sim.Faults

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

(* Why an assignment was skipped (the first three) or its transaction
   aborted (the rest).  The type is not exported, so a cause that no
   code path raises is a build error (warning 37, "never used to build
   values"); [tally] matches every cause, so one without a counter does
   not compile either. *)
type cause =
  | Vs_gone
  | Owner_changed
  | Dest_dead
  | Prepare_lost
  | Partitioned
  | Src_crashed
  | Dest_crashed
  | Commit_lost

let cause_name = function
  | Vs_gone -> "vs_gone"
  | Owner_changed -> "owner_changed"
  | Dest_dead -> "dest_dead"
  | Prepare_lost -> "prepare_lost"
  | Partitioned -> "partitioned"
  | Src_crashed -> "src_crashed"
  | Dest_crashed -> "dest_crashed"
  | Commit_lost -> "commit_lost"

(* The counters [apply] bumps as it goes; the [result] record is built
   from them once, at the end, instead of copied at every step. *)
type counts = {
  mutable moved_load : float;
  mutable transfers : int;
  mutable vs_gone : int;
  mutable owner_changed : int;
  mutable dest_dead : int;
  mutable prepare_lost : int;
  mutable partitioned : int;
  mutable src_crashed : int;
  mutable dest_crashed : int;
  mutable commit_lost : int;
  mutable deduped : int;
  mutable restructure_messages : int;
}

(* Bumps the counter of [c]. *)
let tally n = function
  | Vs_gone -> n.vs_gone <- n.vs_gone + 1
  | Owner_changed -> n.owner_changed <- n.owner_changed + 1
  | Dest_dead -> n.dest_dead <- n.dest_dead + 1
  | Prepare_lost -> n.prepare_lost <- n.prepare_lost + 1
  | Partitioned -> n.partitioned <- n.partitioned + 1
  | Src_crashed -> n.src_crashed <- n.src_crashed + 1
  | Dest_crashed -> n.dest_crashed <- n.dest_crashed + 1
  | Commit_lost -> n.commit_lost <- n.commit_lost + 1

let apply ?tree ?obs ?(faults = Faults.create ~seed:0 Faults.none) ?oracle dht
    assignments =
  let trace_point name attrs =
    match obs with
    | None -> ()
    | Some o -> P2plb_obs.Trace.point (P2plb_obs.Obs.trace o) name ~attrs
  in
  let hist = Histogram.create () in
  let n =
    {
      moved_load = 0.0;
      transfers = 0;
      vs_gone = 0;
      owner_changed = 0;
      dest_dead = 0;
      prepare_lost = 0;
      partitioned = 0;
      src_crashed = 0;
      dest_crashed = 0;
      commit_lost = 0;
      deduped = 0;
      restructure_messages = 0;
    }
  in
  (* Per-assignment sequence numbers: the pair (vs id, seq) names one
     transaction, so a replayed TRANSFER is recognised and dropped.  A
     replay arrives right behind its original, so the handler only has
     to remember the last transaction it installed. *)
  let seq = ref 0 in
  let installed_seq = ref 0 in
  let skip cause =
    tally n cause;
    trace_point "vst/skip" [ ("cause", P2plb_obs.Trace.Str (cause_name cause)) ]
  in
  let abort cause =
    tally n cause;
    trace_point "vst/abort"
      [
        ("cause", P2plb_obs.Trace.Str (cause_name cause));
        ("seq", P2plb_obs.Trace.Int !seq);
      ]
  in
  (* The fault plan's hooks.  Under a quiet plan every message is
     delivered, no crash window fires and nothing is duplicated, and no
     randomness is drawn.  [send] is one protocol message: a loss
     aborts the transaction, blamed on the partition cut when one
     separates the endpoints and on [cause] otherwise. *)
  let send ~src ~dst cause =
    match Faults.send_between faults ~src ~dst with
    | Faults.Delivered _ -> true
    | Faults.Lost ->
      abort (if Faults.cut faults ~a:src ~b:dst then Partitioned else cause);
      false
  in
  (* Mid-window fail-stop of one endpoint, shielded like every other
     crash (see {!Dht.can_depart}).  [false] when the victim was
     shielded; the transaction then proceeds. *)
  let crash_endpoint id cause =
    Dht.can_depart dht id
    && begin
         Dht.crash dht id;
         abort cause;
         true
       end
  in
  (* The light node's TRANSFER handler: installs the VS [v] on [dst]
     once per (vs, seq) transaction and drops any replay of it. *)
  let receive_transfer v ~dst =
    if !installed_seq = !seq then begin
      n.deduped <- n.deduped + 1;
      trace_point "vst/dedup" [ ("seq", P2plb_obs.Trace.Int !seq) ]
    end
    else begin
      Dht.transfer_vs dht v ~to_node:dst;
      installed_seq := !seq
    end
  in
  (* One assignment's transaction as three steps.  The witness types
     are abstract, so the steps only compose in protocol order:
     TRANSFER needs a [prepared] and COMMIT a [transferred]. *)
  let module Txn : sig
    type prepared
    type transferred

    val prepare : Types.assignment -> prepared option
    val transfer : prepared -> transferred option
    val commit : transferred -> unit
  end = struct
    type prepared = { a : Types.assignment; hops : int }
    type transferred = prepared

    (* PREPARE: the heavy owner proposes (vs, seq) to the light node;
       nothing has moved yet, so a drop aborts cleanly. *)
    let prepare (a : Types.assignment) =
      let hops =
        match oracle with
        | Some o ->
          Graph.Oracle.distance o
            ~src:(Dht.node dht a.a_from).Dht.underlay
            ~dst:(Dht.node dht a.a_to).Dht.underlay
        | None -> 0
      in
      incr seq;
      if send ~src:a.a_from ~dst:a.a_to Prepare_lost then Some { a; hops }
      else None

    (* The crash window, then TRANSFER.  A fail-stop between PREPARE
       and COMMIT leaves the VS either safely home (dst died: nothing
       moved) or absorbed by the ring's crash handling (src died with
       the VS still home) — never half-transferred.  A duplicated
       delivery carries the same sequence number and reaches the same
       handler, whose seq check drops it instead of re-applying. *)
    let transfer p =
      let crashed =
        match Faults.crash_in_window faults with
        | Faults.No_crash -> false
        | Faults.Crash_dst -> crash_endpoint p.a.a_to Dest_crashed
        | Faults.Crash_src -> crash_endpoint p.a.a_from Src_crashed
      in
      if crashed then None
      else begin
        let duplicated = Faults.duplicated faults in
        receive_transfer p.a.a_vs ~dst:p.a.a_to;
        if duplicated then receive_transfer p.a.a_vs ~dst:p.a.a_to;
        Some p
      end

    (* COMMIT: the light node acknowledges the TRANSFER it installed;
       until the ack lands the heavy owner keeps the right to reclaim,
       so a lost ack rolls the VS back instead of stranding it. *)
    let commit { a; hops } =
      let v = a.a_vs in
      if send ~src:a.a_to ~dst:a.a_from Commit_lost then begin
        let load = v.Dht.load in
        Histogram.add hist ~bin:hops ~weight:load;
        trace_point "vst/transfer"
          [
            ("hops", P2plb_obs.Trace.Int hops);
            ("load", P2plb_obs.Trace.Float load);
          ];
        (* Lazy migration re-homes every KT node planted in the VS. *)
        let migrated =
          match tree with
          | None -> 0
          | Some t -> Ktree.host_nodes t v.Dht.vs_id * (Ktree.k t + 1)
        in
        n.moved_load <- n.moved_load +. load;
        n.transfers <- n.transfers + 1;
        n.restructure_messages <- n.restructure_messages + migrated
      end
      else Dht.transfer_vs dht v ~to_node:a.a_from
  end in
  (* The skip checks, then the transaction. *)
  List.iter
    (fun (a : Types.assignment) ->
      if not (Dht.on_ring a.a_vs) then skip Vs_gone
      else if a.a_vs.Dht.owner <> a.a_from then skip Owner_changed
      else if not (Dht.is_alive dht a.a_to) then skip Dest_dead
      else Option.iter Txn.commit (Option.bind (Txn.prepare a) Txn.transfer))
    assignments;
  (* Lazy migration: the tree re-checks its planting after the whole
     VSA/VST round (hosts are VS ids, so structure is unchanged; this
     re-validates coverage after ring-state changes). *)
  (match tree with None -> () | Some t -> Ktree.refresh t dht);
  {
    hist;
    moved_load = n.moved_load;
    transfers = n.transfers;
    skipped = n.vs_gone + n.owner_changed + n.dest_dead;
    skipped_vs_gone = n.vs_gone;
    skipped_owner_changed = n.owner_changed;
    skipped_dest_dead = n.dest_dead;
    aborted =
      n.prepare_lost + n.partitioned + n.src_crashed + n.dest_crashed
      + n.commit_lost;
    aborted_prepare_lost = n.prepare_lost;
    aborted_partitioned = n.partitioned;
    aborted_src_crashed = n.src_crashed;
    aborted_dest_crashed = n.dest_crashed;
    aborted_commit_lost = n.commit_lost;
    deduped = n.deduped;
    restructure_messages = n.restructure_messages;
  }

let mean_transfer_distance (r : result) =
  if r.moved_load <= 0.0 then 0.0
  else
    List.fold_left
      (fun acc (bin, w) -> acc +. (float_of_int bin *. w))
      0.0
      (Histogram.bins r.hist)
    /. r.moved_load
