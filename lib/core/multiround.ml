module Dht = P2plb_chord.Dht
module Faults = P2plb_sim.Faults

type round = {
  outcome : Controller.outcome;
  index : int;
  heavy_before : int;
  heavy_after : int;
  moved_load : float;
  transfers : int;
  live_nodes : int;
  skipped : int;
  aborted : int;
  deduped : int;
  repairs : int;
  repair_messages : int;
  retries : int;
  timeouts : int;
}

type result = {
  rounds : round list;
  converged : bool;
  total_moved : float;
  final_heavy : int;
  final_live : int;
  total_repairs : int;
  total_repair_messages : int;
  total_retries : int;
  total_timeouts : int;
  total_aborted : int;
  total_deduped : int;
  crashes : int;
  transfer_crashes : int;
  partitions_formed : int;
  violation : (int * string) option;
}

(* Fault-plan crash events pick a victim by rank in [0,1) over the
   nodes alive at firing time, so the same plan yields the same
   victims regardless of how earlier rounds moved load.  A crash is
   skipped (not retried) when it would empty the ring
   ({!Dht.can_depart}). *)
let crash_by_rank dht ~rank =
  let n = Dht.n_nodes dht in
  if n > 1 then begin
    let idx = Int.min (n - 1) (int_of_float (rank *. float_of_int n)) in
    let victim = (Dht.alive_nth dht idx).Dht.node_id in
    if Dht.can_depart dht victim then Dht.crash dht victim
  end

let run ?(config = Controller.default)
    ?(faults = Faults.create ~seed:0 Faults.none) ?obs ?(max_rounds = 10) ?check
    scenario =
  if max_rounds < 1 then invalid_arg "Multiround.run: max_rounds < 1";
  let dht = scenario.Scenario.dht in
  (* A round occupies one unit of simulated time; the fault plan's
     crashes and partition episodes are spread over the whole horizon
     and fire at the phase barriers inside Controller.run (mid-round
     churn and mid-round cuts).  The plan starts at the trace's clock,
     so the trace's time never runs backwards. *)
  if Faults.enabled faults then
    Faults.arm faults
      ~start:
        (match obs with
        | Some o -> P2plb_obs.Trace.now (P2plb_obs.Obs.trace o)
        | None -> 0.0)
      ~horizon:(float_of_int max_rounds)
      ~population:(Dht.n_nodes dht)
      ~crash:(fun ~rank -> crash_by_rank dht ~rank);
  let c0 = Faults.crashes faults
  and tc0 = Faults.transfer_crashes faults
  and p0 = Faults.partitions_formed faults in
  (* Round spans wrap each controller round so the span forest groups
     phases under their round. *)
  let begin_round index =
    Option.map
      (fun o ->
        P2plb_obs.Trace.begin_span (P2plb_obs.Obs.trace o)
          ~attrs:[ ("index", P2plb_obs.Trace.Int index) ]
          "round")
      obs
  in
  let end_round sp (r : round) =
    match (obs, sp) with
    | Some o, Some sp ->
      P2plb_obs.Trace.end_span (P2plb_obs.Obs.trace o)
        ~attrs:
          [
            ("heavy", P2plb_obs.Trace.Int r.heavy_after);
            ("transfers", P2plb_obs.Trace.Int r.transfers);
            ("moved_load", P2plb_obs.Trace.Float r.moved_load);
          ]
        sp
    | _ -> ()
  in
  let rec go index acc total =
    let round_sp = begin_round index in
    let o = Controller.run ~config ~faults ?obs scenario in
    let hb, _, _ = o.Controller.census_before in
    let ha, _, _ = o.Controller.census_after in
    let r =
      {
        outcome = o;
        index;
        heavy_before = hb;
        heavy_after = ha;
        moved_load = o.Controller.vst.Vst.moved_load;
        transfers = o.Controller.vst.Vst.transfers;
        live_nodes = Dht.n_nodes dht;
        skipped = o.Controller.vst.Vst.skipped;
        aborted = o.Controller.vst.Vst.aborted;
        deduped = o.Controller.vst.Vst.deduped;
        repairs = o.Controller.kt_repairs;
        repair_messages = o.Controller.kt_repair_messages;
        retries = o.Controller.retries;
        timeouts = o.Controller.timeouts;
      }
    in
    end_round round_sp r;
    let violation =
      match check with
      | None -> None
      | Some f -> ( match f r with Ok () -> None | Error e -> Some (index, e))
    in
    let acc = r :: acc and total = total +. r.moved_load in
    let stop =
      match violation with
      | Some _ -> true
      | None -> ha = 0 || r.transfers = 0 || index + 1 >= max_rounds
    in
    if stop then begin
      let converged =
        (match violation with Some _ -> false | None -> true)
        && (ha = 0 || r.transfers = 0)
      in
      let rounds = List.rev acc in
      let sum f = List.fold_left (fun s r -> s + f r) 0 rounds in
      {
        rounds;
        converged;
        total_moved = total;
        final_heavy = ha;
        final_live = Dht.n_nodes dht;
        total_repairs = sum (fun r -> r.repairs);
        total_repair_messages = sum (fun r -> r.repair_messages);
        total_retries = sum (fun r -> r.retries);
        total_timeouts = sum (fun r -> r.timeouts);
        total_aborted = sum (fun r -> r.aborted);
        total_deduped = sum (fun r -> r.deduped);
        crashes = Faults.crashes faults - c0;
        transfer_crashes = Faults.transfer_crashes faults - tc0;
        partitions_formed = Faults.partitions_formed faults - p0;
        violation;
      }
    end
    else go (index + 1) acc total
  in
  go 0 [] 0.0

let invariant_check ~faults ~expected_total dht =
  let snapshot = ref (Invariants.vs_snapshot dht) in
  let fired () = Faults.crashes faults + Faults.transfer_crashes faults in
  let crashes_seen = ref (fired ()) in
  fun (_ : round) ->
    let now = fired () in
    let res =
      Invariants.all ~expected_total ~vs_before:!snapshot
        ~crashes:(now - !crashes_seen) dht
    in
    crashes_seen := now;
    snapshot := Invariants.vs_snapshot dht;
    res

let pp fmt r =
  Format.fprintf fmt "%d round(s), converged=%b, final heavy=%d/%d live@\n"
    (List.length r.rounds) r.converged r.final_heavy r.final_live;
  if
    r.crashes > 0 || r.total_retries > 0 || r.total_timeouts > 0
    || r.transfer_crashes > 0 || r.partitions_formed > 0
  then begin
    Format.fprintf fmt
      "  churn: %d crashes, %d KT repairs, %d retries, %d timeouts@\n"
      r.crashes r.total_repairs r.total_retries r.total_timeouts;
    if r.transfer_crashes > 0 || r.partitions_formed > 0 || r.total_aborted > 0
    then
      Format.fprintf fmt
        "  transfer faults: %d mid-transfer crashes, %d partitions, %d \
         aborted, %d deduped@\n"
        r.transfer_crashes r.partitions_formed r.total_aborted r.total_deduped
  end;
  (match r.violation with
  | None -> ()
  | Some (index, e) ->
    Format.fprintf fmt "  INVARIANT VIOLATION after round %d: %s@\n" index e);
  List.iter
    (fun round ->
      Format.fprintf fmt
        "  round %d: heavy %d -> %d, moved %.4g in %d transfers" round.index
        round.heavy_before round.heavy_after round.moved_load round.transfers;
      if round.skipped > 0 || round.repairs > 0 then
        Format.fprintf fmt " (%d skipped, %d repairs)" round.skipped
          round.repairs;
      if round.aborted > 0 || round.deduped > 0 then
        Format.fprintf fmt " (%d aborted, %d deduped)" round.aborted
          round.deduped;
      Format.fprintf fmt "@\n")
    r.rounds
