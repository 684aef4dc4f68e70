module Prng = P2plb_prng.Prng
module Dist = P2plb_prng.Dist
module Id = P2plb_idspace.Id
module Dht = P2plb_chord.Dht
module Store = P2plb_chord.Store

type config = {
  arrivals_per_epoch : float;
  departure_prob : float;
  mean_size : float;
  zipf_catalogue : int;
  zipf_exponent : float;
}

let default =
  {
    arrivals_per_epoch = 200.0;
    departure_prob = 0.05;
    mean_size = 4.0;
    zipf_catalogue = 1000;
    zipf_exponent = 0.9;
  }

type t = {
  config : config;
  rng : Prng.t;
  mutable live : Id.t list; (* keys currently stored *)
  mutable n_live : int;
  mutable next_object : int;
}

let create ~seed config =
  if config.arrivals_per_epoch < 0.0 then
    invalid_arg "Arrivals.create: negative arrival rate";
  if config.departure_prob < 0.0 || config.departure_prob > 1.0 then
    invalid_arg "Arrivals.create: departure_prob out of [0,1]";
  if config.mean_size <= 0.0 then invalid_arg "Arrivals.create: mean_size <= 0";
  { config; rng = Prng.create ~seed; live = []; n_live = 0; next_object = 0 }

let live_objects t = t.n_live

(* Poisson sample by inversion; rates here are small (hundreds). *)
let poisson rng lambda =
  if lambda <= 0.0 then 0
  else begin
    let l = exp (-.lambda) in
    let rec go k p =
      let p = p *. Prng.unit_float rng in
      if p <= l then k else go (k + 1) p
    in
    go 0 1.0
  end

type epoch_stats = {
  arrived : int;
  departed : int;
  bytes_in : float;
  bytes_out : float;
}

let epoch t dht store =
  let cfg = t.config in
  (* Departures first: each live object leaves independently. *)
  let departed = ref 0 and bytes_out = ref 0.0 in
  let survivors =
    List.filter
      (fun key ->
        if Prng.unit_float t.rng < cfg.departure_prob then begin
          let before = Store.total_bytes store in
          ignore (Store.remove store ~key);
          bytes_out := !bytes_out +. (before -. Store.total_bytes store);
          incr departed;
          false
        end
        else true)
      t.live
  in
  (* Arrivals. *)
  let n_arrivals = poisson t.rng cfg.arrivals_per_epoch in
  let bytes_in = ref 0.0 in
  let fresh = ref [] in
  for _ = 1 to n_arrivals do
    let key = Id.hash_key t.next_object "trace-obj" in
    t.next_object <- t.next_object + 1;
    let size = Dist.exponential t.rng ~mean:cfg.mean_size in
    let rank = Dist.zipf t.rng ~n:cfg.zipf_catalogue ~s:cfg.zipf_exponent in
    let served = size /. float_of_int rank in
    Store.insert store dht ~key ~size:served;
    bytes_in := !bytes_in +. served;
    fresh := key :: !fresh
  done;
  t.live <- List.rev_append !fresh survivors;
  t.n_live <- t.n_live - !departed + n_arrivals;
  Store.apply_primary_loads store dht;
  {
    arrived = n_arrivals;
    departed = !departed;
    bytes_in = !bytes_in;
    bytes_out = !bytes_out;
  }
