module Prng = P2plb_prng.Prng
module Dht = P2plb_chord.Dht
module Ktree = P2plb_ktree.Ktree
module Faults = P2plb_sim.Faults

let node_lbi (n : Dht.node) : Types.lbi =
  let l = Dht.node_load n in
  let l_min =
    List.fold_left (fun acc v -> Float.min acc v.Dht.load) infinity n.Dht.vss
  in
  { l; c = n.Dht.capacity; l_min }

let zero_lbi : Types.lbi = { l = 0.0; c = 0.0; l_min = infinity }

(* A report send under fault injection: retried with bounded backoff;
   [false] means the sender timed out and the message is lost for this
   round (the round degrades gracefully rather than stalling).  Without
   a fault plan every send succeeds untouched. *)
let reliable faults =
  match faults with
  | None -> true
  | Some f -> ( match Faults.send f with Faults.Delivered _ -> true | Faults.Lost -> false)

let aggregate ~rng ?faults ?(route_messages = false) ?sweep tree dht =
  if Dht.n_nodes dht = 0 then invalid_arg "Lbi.aggregate: no alive nodes";
  (* Heal the tree before sweeping: KT nodes whose hosting VS died (or
     lost its key) since the tree was built are re-planted, so reports
     always find a live leaf. *)
  ignore (Ktree.repair ~route_messages tree dht);
  (* Each node reports through one randomly chosen VS (to avoid
     redundant per-node reports); the VS hands the report to its
     designated KT leaf. *)
  (* Arrival-ordered (leaf slot, report) pairs, grouped per leaf slot
     by a stable counting sort — replaces the per-leaf Hashtbl of
     reverse-arrival report lists. *)
  let cap = ref 0 and n_reports = ref 0 in
  let rep_slot = ref [||] in
  let rep_lbi = ref ([||] : Types.lbi array) in
  Dht.fold_nodes dht ~init:() ~f:(fun () n ->
      let v = Dht.report_vs dht rng n in
      if reliable faults then begin
        (* -1 cannot happen: every VS hosts a leaf. *)
        let slot = Ktree.vs_slot tree v.Dht.vs_id in
        if slot >= 0 then begin
          let r = node_lbi n in
          if !n_reports = !cap then begin
            let c = if !cap = 0 then 1024 else 2 * !cap in
            let slots = Array.make c 0 and lbis = Array.make c r in
            Array.blit !rep_slot 0 slots 0 !n_reports;
            Array.blit !rep_lbi 0 lbis 0 !n_reports;
            cap := c;
            rep_slot := slots;
            rep_lbi := lbis
          end;
          !rep_slot.(!n_reports) <- slot;
          !rep_lbi.(!n_reports) <- r;
          incr n_reports
        end
      end);
  let n_slots = Ktree.n_leaf_slots tree in
  let starts = Array.make (n_slots + 1) 0 in
  for i = 0 to !n_reports - 1 do
    let s = !rep_slot.(i) in
    starts.(s + 1) <- starts.(s + 1) + 1
  done;
  for s = 1 to n_slots do
    starts.(s) <- starts.(s) + starts.(s - 1)
  done;
  let grouped =
    if !n_reports = 0 then [||]
    else begin
      let g = Array.make !n_reports !rep_lbi.(0) in
      let cursor = Array.copy starts in
      for i = 0 to !n_reports - 1 do
        let s = !rep_slot.(i) in
        g.(cursor.(s)) <- !rep_lbi.(i);
        cursor.(s) <- cursor.(s) + 1
      done;
      g
    end
  in
  let sweep = match sweep with Some f -> f | None -> Ktree.sweep tree in
  (* Combining is all the KT nodes do: the lift is the identity. *)
  sweep
    ~at_leaf:(fun ~slot ~depth:_ ->
      (* The Hashtbl path folded the reverse-arrival report list, so
         the float sums ran newest-first; iterate the arrival-ordered
         slice backwards to keep the exact summation order. *)
      let acc = ref zero_lbi in
      for i = starts.(slot + 1) - 1 downto starts.(slot) do
        acc := Types.lbi_combine !acc grouped.(i)
      done;
      !acc)
    ~merge:Types.lbi_combine
    ~lift:(fun ~hi:_ ~lo:_ lbi -> lbi)

let disseminate ?faults ?(route_messages = false) tree dht (_ : Types.lbi) =
  (* Nodes may have died during aggregation; re-plant before pushing
     the root value back down. *)
  ignore (Ktree.repair ~route_messages tree dht);
  (* The value reaches every leaf unchanged.  The final hop, leaf ->
     reporting VS, rides the same lossy links as the reports: one
     reliable send per leaf, whose losses are retried and, at worst,
     counted as timeouts (the stale-LBI node re-reads it next round). *)
  Ktree.broadcast tree;
  Option.iter
    (fun f ->
      for _ = 1 to Ktree.n_leaves tree do
        ignore (Faults.send f)
      done)
    faults

let run ~rng ?faults ?route_messages tree dht =
  let lbi = aggregate ~rng ?faults ?route_messages tree dht in
  disseminate ?faults ?route_messages tree dht lbi;
  lbi
