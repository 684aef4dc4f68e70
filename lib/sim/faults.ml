module Prng = P2plb_prng.Prng

type config = {
  crash_fraction : float;
  message_loss : float;
  max_attempts : int;
  duplicate_prob : float;
  transfer_crash : float;
  partitions : int;
  partition_groups : int;
  partition_duration : float;
}

let none =
  {
    crash_fraction = 0.0;
    message_loss = 0.0;
    max_attempts = 1;
    duplicate_prob = 0.0;
    transfer_crash = 0.0;
    partitions = 0;
    partition_groups = 2;
    partition_duration = 0.0;
  }

let churn ?(crash_fraction = 0.1) ?(message_loss = 0.01) ?(duplicate_prob = 0.0)
    ?(transfer_crash = 0.0) ?(partitions = 0) ?(partition_groups = 2)
    ?(partition_duration = 1.0) () =
  {
    crash_fraction;
    message_loss;
    max_attempts = 4;
    duplicate_prob;
    transfer_crash;
    partitions;
    partition_groups;
    partition_duration;
  }

(* One partition episode: while active, nodes hashed to different
   groups cannot exchange messages. *)
type partition = { epoch : int; groups : int }

(* One armed plan event; a crash carries its victim rank. *)
type event = Crash of float | Partition of partition | Heal of partition

type t = {
  config : config;
  loss_rng : Prng.t;  (* per-message drop decisions *)
  plan_rng : Prng.t;  (* crash times, victim ranks, partition times *)
  xfer_rng : Prng.t;  (* duplication and mid-transfer-crash draws *)
  partition_salt : int;  (* group assignment hash key *)
  mutable active_partitions : partition list;
  mutable schedule : (float * event) array;  (* sorted by time *)
  mutable next : int;  (* first unfired entry of [schedule] *)
  mutable clock : float option;  (* [None] until armed *)
  mutable crash : rank:float -> unit;
  mutable retries : int;
  mutable timeouts : int;
  mutable drops : int;
  mutable crashes : int;
  mutable duplicates : int;
  mutable transfer_crashes : int;
  mutable partition_drops : int;
  mutable partitions_formed : int;
  mutable obs : P2plb_obs.Obs.t option;
}

let create ~seed config =
  if config.crash_fraction < 0.0 || config.crash_fraction >= 1.0 then
    invalid_arg "Faults.create: crash_fraction outside [0, 1)";
  if config.message_loss < 0.0 || config.message_loss >= 1.0 then
    invalid_arg "Faults.create: message_loss outside [0, 1)";
  if config.max_attempts < 1 then invalid_arg "Faults.create: max_attempts < 1";
  if config.duplicate_prob < 0.0 || config.duplicate_prob >= 1.0 then
    invalid_arg "Faults.create: duplicate_prob outside [0, 1)";
  if config.transfer_crash < 0.0 || config.transfer_crash >= 1.0 then
    invalid_arg "Faults.create: transfer_crash outside [0, 1)";
  if config.partitions < 0 then invalid_arg "Faults.create: partitions < 0";
  if config.partitions > 0 && config.partition_groups < 2 then
    invalid_arg "Faults.create: partition_groups < 2";
  if config.partitions > 0 && config.partition_duration <= 0.0 then
    invalid_arg "Faults.create: partition_duration <= 0";
  let master = Prng.create ~seed in
  let loss_rng = Prng.split master in
  let plan_rng = Prng.split master in
  (* Discarded; keeps xfer_rng and partition_salt where chaos pins them. *)
  ignore (Prng.bits64 master : int64);
  (* New streams are drawn after every pre-existing one, so plans built
     from configs with the new fields at zero keep loss_rng and
     plan_rng byte-identical to older releases. *)
  let xfer_rng = Prng.split master in
  let partition_salt = Int64.to_int (Prng.bits64 master) in
  {
    config;
    loss_rng;
    plan_rng;
    xfer_rng;
    partition_salt;
    active_partitions = [];
    schedule = [||];
    next = 0;
    clock = None;
    crash = (fun ~rank:_ -> ());
    retries = 0;
    timeouts = 0;
    drops = 0;
    crashes = 0;
    duplicates = 0;
    transfer_crashes = 0;
    partition_drops = 0;
    partitions_formed = 0;
    obs = None;
  }

let attach_obs t obs = t.obs <- Some obs

let obs_event t name attrs =
  match t.obs with
  | None -> ()
  | Some o ->
    P2plb_obs.Trace.point (P2plb_obs.Obs.trace o) name ~attrs

let enabled t =
  t.config.crash_fraction > 0.0
  || t.config.message_loss > 0.0
  || t.config.duplicate_prob > 0.0
  || t.config.transfer_crash > 0.0
  || t.config.partitions > 0

let loss_stream t = Prng.copy t.loss_rng

type send_outcome = Delivered of int | Lost

let deliver t =
  if t.config.message_loss <= 0.0 then true
  else if Prng.unit_float t.loss_rng < t.config.message_loss then begin
    t.drops <- t.drops + 1;
    obs_event t "fault/drop" [ ("cause", P2plb_obs.Trace.Str "loss") ];
    false
  end
  else true

let send t =
  if t.config.message_loss <= 0.0 then Delivered 1
  else begin
    let rec attempt n =
      if deliver t then begin
        t.retries <- t.retries + (n - 1);
        if n > 1 then
          obs_event t "fault/retry" [ ("attempts", P2plb_obs.Trace.Int n) ];
        Delivered n
      end
      else if n >= t.config.max_attempts then begin
        t.retries <- t.retries + (n - 1);
        t.timeouts <- t.timeouts + 1;
        obs_event t "fault/timeout"
          [
            ("cause", P2plb_obs.Trace.Str "max_attempts");
            ("attempts", P2plb_obs.Trace.Int n);
          ];
        Lost
      end
      else attempt (n + 1)
    in
    attempt 1
  end

(* Without loss each send is delivered at its first attempt and changes
   nothing, so the batch is skipped whole: a quiet plan's dissemination
   to a few hundred thousand KT leaves costs nothing. *)
let sends t n =
  if t.config.message_loss > 0.0 then
    for _ = 1 to n do
      ignore (send t : send_outcome)
    done

(* --- Partitions -------------------------------------------------------- *)

(* Group assignment is a stateless hash of (salt, epoch, node): stable
   for the episode's whole lifetime, independent of query order, and
   different per episode so successive partitions cut different sets. *)
let side t (p : partition) node =
  let seed =
    t.partition_salt
    lxor ((p.epoch + 1) * 0x9e3779b9)
    lxor (node * 0x85ebca6b)
  in
  Prng.int (Prng.create ~seed) p.groups

(* No partition active is the common case: matched first, it costs no
   closure, so a quiet plan's sends allocate nothing. *)
let cut t ~a ~b =
  match t.active_partitions with
  | [] -> false
  | ps -> a <> b && List.exists (fun p -> side t p a <> side t p b) ps

let partition_active t =
  match t.active_partitions with [] -> false | _ :: _ -> true

let send_between t ~src ~dst =
  if cut t ~a:src ~b:dst then begin
    (* every attempt crosses the cut; no retry can save it and no
       randomness is consumed, keeping the loss stream aligned *)
    t.partition_drops <- t.partition_drops + 1;
    obs_event t "fault/drop" [ ("cause", P2plb_obs.Trace.Str "partition") ];
    Lost
  end
  else send t

(* --- Transfer-window faults -------------------------------------------- *)

let duplicated t =
  if t.config.duplicate_prob <= 0.0 then false
  else if Prng.unit_float t.xfer_rng < t.config.duplicate_prob then begin
    t.duplicates <- t.duplicates + 1;
    obs_event t "fault/duplicate" [];
    true
  end
  else false

type window_crash = No_crash | Crash_src | Crash_dst

let crash_in_window t =
  if t.config.transfer_crash <= 0.0 then No_crash
  else if Prng.unit_float t.xfer_rng >= t.config.transfer_crash then No_crash
  else begin
    let victim = if Prng.bool t.xfer_rng then Crash_src else Crash_dst in
    t.transfer_crashes <- t.transfer_crashes + 1;
    obs_event t "fault/transfer_crash"
      [
        ( "endpoint",
          P2plb_obs.Trace.Str
            (match victim with Crash_src -> "src" | _ -> "dst") );
      ];
    victim
  end

(* --- Schedules --------------------------------------------------------- *)

(* Draws the whole plan at once from plan_rng: each crash's time then
   rank, then each partition's time (after the crashes, so plans with
   [partitions = 0] consume exactly the crash stream).  Equal times
   fire arm-time events in draw order, then heals in the order their
   partitions fire: both sorts are stable. *)
let arm t ~start ~horizon ~population ~crash =
  if horizon <= 0.0 then invalid_arg "Faults.arm: horizon <= 0";
  if population < 0 then invalid_arg "Faults.arm: population < 0";
  let n_crashes =
    int_of_float (Float.round (t.config.crash_fraction *. float_of_int population))
  in
  let crashes =
    Array.init n_crashes (fun _ ->
        let at = start +. Prng.float t.plan_rng horizon in
        (at, Crash (Prng.unit_float t.plan_rng)))
  in
  let partitions =
    Array.init t.config.partitions (fun i ->
        let at = start +. Prng.float t.plan_rng horizon in
        (at, { epoch = i + 1; groups = t.config.partition_groups }))
  in
  let by_time (a, _) (b, _) = Float.compare a b in
  let heals = Array.copy partitions in
  Array.stable_sort by_time heals;
  let schedule =
    Array.concat
      [
        crashes;
        Array.map (fun (at, p) -> (at, Partition p)) partitions;
        Array.map
          (fun (at, p) -> (at +. t.config.partition_duration, Heal p))
          heals;
      ]
  in
  Array.stable_sort by_time schedule;
  t.schedule <- schedule;
  t.next <- 0;
  t.clock <- Some start;
  t.crash <- crash

let clock t = t.clock

let fire t at ev =
  t.clock <- Some at;
  (match t.obs with
  | Some o -> P2plb_obs.Trace.set_time (P2plb_obs.Obs.trace o) at
  | None -> ());
  match ev with
  | Crash rank ->
    t.crashes <- t.crashes + 1;
    obs_event t "fault/crash"
      [
        ("cause", P2plb_obs.Trace.Str "plan");
        ("rank", P2plb_obs.Trace.Float rank);
      ];
    t.crash ~rank
  | Partition p ->
    t.active_partitions <- p :: t.active_partitions;
    t.partitions_formed <- t.partitions_formed + 1;
    obs_event t "fault/partition"
      [
        ("epoch", P2plb_obs.Trace.Int p.epoch);
        ("groups", P2plb_obs.Trace.Int p.groups);
      ]
  | Heal p ->
    t.active_partitions <-
      List.filter
        (fun (q : partition) -> q.epoch <> p.epoch)
        t.active_partitions;
    obs_event t "fault/heal" [ ("epoch", P2plb_obs.Trace.Int p.epoch) ]

let fire_until t ~time =
  match t.clock with
  | None -> 0
  | Some now ->
    let first = t.next in
    while t.next < Array.length t.schedule && fst t.schedule.(t.next) <= time do
      let at, ev = t.schedule.(t.next) in
      t.next <- t.next + 1;
      fire t at ev
    done;
    t.clock <- Some (Float.max now time);
    t.next - first

let retries t = t.retries
let timeouts t = t.timeouts
let drops t = t.drops
let crashes t = t.crashes
let duplicates t = t.duplicates
let transfer_crashes t = t.transfer_crashes
let partition_drops t = t.partition_drops
let partitions_formed t = t.partitions_formed
