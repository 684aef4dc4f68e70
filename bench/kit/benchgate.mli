(** Machine-readable bench records ([BENCH_<rev>.json]) and the
    perf-regression gate.

    The file is JSONL on the trace sink's flat-object subset: a
    ["meta"] line (schema version, revision, experiment parameters),
    one ["experiment"] line per observed experiment (cpu seconds,
    allocated bytes, plus the simulation-derived convergence figures)
    and one ["bench"] line per micro-benchmark.  The
    simulation-derived fields are deterministic per seed —
    {!sim_digest} hashes exactly those, which is what the
    [@bench-smoke] alias pins across two runs — while cpu, alloc, wall
    clock and speedup are host costs that never feed back into a
    simulation (DESIGN.md §11). *)

val schema_version : int

type sim = {
  sm_rounds : int;
  sm_conv_round : int;  (** -1 when the run did not converge *)
  sm_final_ratio : float;
  sm_moved_frac : float;
  sm_transfers : int;
  sm_messages : int;
  sm_series_digest : string;
}

type experiment = {
  e_name : string;
  e_cpu_s : float;
  e_alloc_bytes : float;
  e_sim : sim;
}

type bench = { b_name : string; b_ns : float }

type meta = {
  m_rev : string;
  m_nodes : int;
  m_graphs : int;
  m_seed : int;
  m_smoke : bool;
  m_jobs : int;  (** [--jobs] domain count of the recording run *)
  m_wall_s : float;  (** wall-clock seconds of the timed phases *)
  m_speedup : float;
      (** total experiment cpu over wall — parallel utilisation.  Like
          cpu/alloc, a host cost excluded from {!sim_digest}. *)
}

type file = {
  f_meta : meta;
  f_experiments : experiment list;
  f_benches : bench list;
}

(** {1 Building a record} *)

val observe : string -> P2plb_obs.Obs.t -> (unit -> unit) -> experiment
(** [observe name obs run] runs [run] and reads the cpu seconds and
    bytes it allocated, then derives the deterministic figures from
    [obs] once it is finished: timeseries rounds and convergence plus
    the [vst/transfers] and [round/messages] counters. *)

val record :
  rev:string ->
  nodes:int ->
  graphs:int ->
  seed:int ->
  smoke:bool ->
  jobs:int ->
  wall_s:float ->
  experiment list ->
  bench list ->
  file
(** The record of one run; its speedup is the experiments' total cpu
    over [wall_s] ([1.0] when no wall time was taken). *)

val to_json : file -> string
val write : file -> path:string -> unit

(** {1 Reading a record} *)

val parse : string -> (file, string) result
(** Rejects a missing or mistyped field, a duplicate or missing meta,
    an unknown record kind (each with a line-numbered diagnostic), a
    schema other than {!schema_version}, and a record with no
    experiment. *)

val sim_digest : file -> string
(** Digest over the simulation-derived fields only — byte-identical
    across two runs of the same revision and parameters. *)

(** {1 The gate} *)

type report = { rp_checked : int; rp_regressions : string list }

val diff : max_regress_pct:float -> baseline:file -> current:file -> report
(** Regressions: an experiment missing from the current run; cpu,
    alloc, transfers or messages more than [max_regress_pct] percent
    above the baseline; convergence lost or reached in a later round; a
    micro-benchmark above the threshold; or the two records
    disagreeing on [m_jobs] (cpu/alloc comparisons are only
    like-with-like at equal domain counts).  Cpu rows with a baseline
    under 20 ms, alloc rows under 1 MB and benches under 100 ns are not
    compared, so timer noise on near-zero figures cannot flap the
    gate.  Benches missing from the current run are skipped (smoke
    runs carry none). *)
