module Prng = P2plb_prng.Prng
module Dht = P2plb_chord.Dht
module Ktree = P2plb_ktree.Ktree
module Faults = P2plb_sim.Faults

let exact dht : Types.lbi =
  let l = Dht.total_load dht and c = Dht.total_capacity dht in
  let l_min =
    Dht.fold_vs dht ~init:infinity ~f:(fun acc v -> Float.min acc v.Dht.load)
  in
  { l; c; l_min }

let zero_lbi : Types.lbi = { l = 0.0; c = 0.0; l_min = infinity }

(* A report send: retried up to the plan's attempt budget; [false]
   means the sender timed out and the message is lost for this round
   (the round degrades gracefully rather than stalling). *)
let reliable faults =
  match Faults.send faults with Faults.Delivered _ -> true | Faults.Lost -> false

let aggregate ~rng ?(faults = Faults.create ~seed:0 Faults.none)
    ?(route_messages = false) ?sweep tree dht =
  if Dht.n_nodes dht = 0 then invalid_arg "Lbi.aggregate: no alive nodes";
  (* Heal the tree before sweeping: KT nodes whose hosting VS died (or
     lost its key) since the tree was built are re-planted, so reports
     always find a live leaf. *)
  ignore (Ktree.repair ~route_messages tree dht);
  (* Each node reports [<L_i, C_i, L_{i,min}>], its node-table entries
     and capacity, through one randomly chosen VS (to avoid redundant
     per-node reports); the VS hands the report to its designated KT
     leaf. *)
  let reports = Ktree.Reports.create tree in
  let loads = Dht.node_loads dht and l_mins = Dht.node_l_mins dht in
  for i = 0 to Float.Array.length loads - 1 do
    let n = Dht.alive_nth dht i in
    let v = Dht.report_vs dht rng n in
    if reliable faults then
      Ktree.Reports.add reports v.Dht.vs_id
        {
          Types.l = Float.Array.get loads i;
          c = n.Dht.capacity;
          l_min = Float.Array.get l_mins i;
        }
  done;
  (* Combining is all the KT nodes do: the lift is the identity, and
     [zero_lbi], the value of a leaf without reports, is an exact
     identity of the combine for non-negative loads. *)
  Ktree.Reports.sweep ?sweep reports ~empty:zero_lbi
    ~at_leaf:(fun ~depth:_ grouped ~lo ~hi ->
      (* The Hashtbl path folded the reverse-arrival report list, so
         the float sums ran newest-first; iterate the arrival-ordered
         slice backwards to keep the exact summation order. *)
      let acc = ref zero_lbi in
      for i = hi - 1 downto lo do
        acc := Types.lbi_combine !acc grouped.(i)
      done;
      !acc)
    ~merge:Types.lbi_combine
    ~lift:(fun ~hi:_ ~lo:_ lbi -> lbi)

let disseminate faults tree =
  (* The value reaches every leaf unchanged.  The final hop, leaf ->
     reporting VS, rides the same lossy links as the reports: one
     reliable send per leaf, whose losses are retried and, at worst,
     counted as timeouts (the stale-LBI node re-reads it next round). *)
  Ktree.broadcast tree;
  Faults.sends faults (Ktree.n_leaves tree)

let run ~rng ?(faults = Faults.create ~seed:0 Faults.none) ?route_messages tree
    dht =
  let lbi = aggregate ~rng ~faults ?route_messages tree dht in
  disseminate faults tree;
  lbi
