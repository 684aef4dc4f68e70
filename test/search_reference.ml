(* Search-based references for the VS handles of VSA and VST.

   Shed records and assignments carry the ring's own VS record, and
   VSA and VST read its owner, which the ring sets to -1 when the VS
   leaves.  These references never trust a handle: like the code before
   handles, every check finds the VS again by its id with
   [Dht.vs_of_id].  [vsa] is one proximity-ignorant round written from
   the protocol (§3.4) with that freshness test, and [vst_skips]
   applies assignments as VST's transactions do, with that skip
   check.  Both draw from the PRNG and the fault plan in the order
   [Vsa.run] and [Vst.apply] do, so on twin worlds the two paths must
   agree exactly.  test_prop checks that they do under churn. *)

module Dht = P2plb_chord.Dht
module Ktree = P2plb_ktree.Ktree
module Faults = P2plb_sim.Faults
module Types = P2plb.Types
module Classify = P2plb.Classify
module Excess = P2plb.Excess
module Pairing = P2plb.Pairing

(* One reliable send, through the plan when there is one. *)
let delivered = function
  | None -> true
  | Some f -> (
    match Faults.send f with Faults.Delivered _ -> true | Faults.Lost -> false)

(* A record is fresh when its reporter is alive and, for a shed, the
   ring still holds a VS of that id owned by the reporter. *)
let fresh dht : Types.vsa_record -> bool = function
  | Types.Shed s -> (
    Dht.is_alive dht s.Types.heavy_node
    &&
    match Dht.vs_of_id dht s.Types.vs.Dht.vs_id with
    | Some v -> v.Dht.owner = s.Types.heavy_node
    | None -> false)
  | Types.Light l -> Dht.is_alive dht l.Types.light_node

(* One proximity-ignorant VSA round at slack [epsilon]: the
   assignments whose two notifications got through, in the order they
   were made, and the number of stale records dropped at the leaves.
   [sweep] drives the rendezvous, as [Vsa.run]'s hook does. *)
let vsa ~threshold ~epsilon ?faults ~sweep ~rng ~(lbi : Types.lbi) tree dht =
  ignore (Ktree.repair tree dht);
  let reports = Ktree.Reports.create tree in
  (* A node hands each record to a random one of its VSs. *)
  let report n (r : Types.vsa_record) =
    let v = Dht.report_vs dht rng n in
    if delivered faults then Ktree.Reports.add reports v.Dht.vs_id r
  in
  Dht.fold_nodes dht ~init:() ~f:(fun () n ->
      let load = Dht.node_load n and capacity = n.Dht.capacity in
      let target = Classify.target_load ~lbi ~epsilon ~capacity in
      let node = n.Dht.node_id in
      match Classify.classify ~lbi ~epsilon ~load ~capacity with
      | Types.Neutral -> ()
      | Types.Light ->
        report n (Types.Light { deficit = target -. load; light_node = node })
      | Types.Heavy ->
        let loads =
          Array.of_list (List.map (fun v -> (v, v.Dht.load)) n.Dht.vss)
        in
        List.iter
          (fun (vs, vs_load) ->
            report n (Types.Shed { vs_load; vs; heavy_node = node }))
          (Excess.choose_shed ~keep_at_least:0 ~loads (load -. target)));
  let stale = ref 0 and made = ref [] in
  (* Pair a pool at [depth]; both endpoints must hear of a pairing. *)
  let pair depth pool =
    let pairs, left = Pairing.pair ~depth ~l_min:lbi.l_min pool in
    List.iter
      (fun a ->
        let to_heavy = delivered faults in
        let to_light = delivered faults in
        if to_heavy && to_light then made := a :: !made)
      pairs;
    left
  in
  let sheds = List.filter_map (function Types.Shed s -> Some s | _ -> None) in
  let lights =
    List.filter_map (function
      | (Types.Light l : Types.vsa_record) -> Some l
      | _ -> None)
  in
  ignore
    (Ktree.Reports.sweep ~sweep reports ~empty:Pairing.empty
      ~at_leaf:(fun ~depth records ~lo ~hi ->
        let kept =
          List.filter
            (fun r ->
              fresh dht r
              || begin
                   incr stale;
                   false
                 end)
            (Array.to_list (Array.sub records lo (hi - lo)))
        in
        let pool = Pairing.of_entries (sheds kept) (lights kept) in
        if Pairing.size pool >= threshold then pair depth pool else pool)
      ~merge:Pairing.merge
      ~lift:(fun ~hi ~lo pool ->
        (* Every level pairs a pool of at least [threshold] entries,
           the root any pool. *)
        let pool = ref pool in
        for d = lo downto hi do
          if d = 0 || Pairing.size !pool >= threshold then
            pool := pair d !pool
        done;
        !pool));
  (List.rev !made, !stale)

(* Applies [assignments] as VST's transactions do — PREPARE, the crash
   window, TRANSFER (a duplicate is dropped), COMMIT or a rollback —
   and returns the cause of every skipped one, in order. *)
let vst_skips ?faults dht assignments =
  let sent ~src ~dst =
    match faults with
    | None -> true
    | Some f -> (
      match Faults.send_between f ~src ~dst with
      | Faults.Delivered _ -> true
      | Faults.Lost -> false)
  in
  let crash id =
    Dht.can_depart dht id
    && begin
         Dht.crash dht id;
         true
       end
  in
  List.filter_map
    (fun (a : Types.assignment) ->
      match Dht.vs_of_id dht a.a_vs.Dht.vs_id with
      | None -> Some "vs_gone"
      | Some v when v.Dht.owner <> a.a_from -> Some "owner_changed"
      | Some _ when not (Dht.is_alive dht a.a_to) -> Some "dest_dead"
      | Some v ->
        (if sent ~src:a.a_from ~dst:a.a_to then
           let crashed =
             match faults with
             | None -> false
             | Some f -> (
               match Faults.crash_in_window f with
               | Faults.No_crash -> false
               | Faults.Crash_dst -> crash a.a_to
               | Faults.Crash_src -> crash a.a_from)
           in
           if not crashed then begin
             Option.iter (fun f -> ignore (Faults.duplicated f)) faults;
             Dht.transfer_vs dht v ~to_node:a.a_to;
             if not (sent ~src:a.a_to ~dst:a.a_from) then
               Dht.transfer_vs dht v ~to_node:a.a_from
           end);
        None)
    assignments
