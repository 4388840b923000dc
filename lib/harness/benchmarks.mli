(** Throughput benchmarks and the perf-regression gate.

    Five measurements cover the hot paths the fuzz/explore loops are
    bounded by (ROADMAP: "as fast as the hardware allows"):

    - {b engine events/sec} — end-to-end simulator throughput on a
      fixed mixed scenario, counted in fired thunks
      ({!Sbft_sim.Engine.events_fired}) so the same yardstick exists at
      every trace level;
    - {b fuzz schedules/sec} — full campaign iterations per second
      (execute + coverage + corpus bookkeeping), sequential and at
      1/2/4/8 domains;
    - {b checker µs per 10k-op history} — one sweep-based
      {!Sbft_spec.Regularity.check} over a synthetic steady-state
      audit history, with the retired scan
      ({!Sbft_spec.Regularity_oracle}) timed once alongside for the
      speedup ratio;
    - {b tracing overhead} — the same scenario with the trace dial at
      [Off] / [Sampled] / [On], quantifying what observability costs
      (the [Off] fast path is required to stay within a few percent of
      a build with no observability at all);
    - {b series and loadgen overhead} — a kv run with the streaming
      series + detector on vs. off, and the open-loop generator vs.
      the closed-loop driver, each held to an absolute 5% budget.

    Wall-clock timed ({!Clock}), deterministic workloads (fixed seeds);
    only the timings vary run to run.  [sbftreg bench] and
    [bench/main.exe --json] both emit {!to_json}, and
    {!compare_to_baseline} implements the CI gate that fails on a >30%
    throughput regression against the committed baseline
    ([BENCH_PR10.json]). *)

type checker = {
  hist_ops : int;
  hist_writes : int;
  hist_reads : int;
  sweep_us : float;  (** one [Regularity.check], microseconds (mean) *)
  oracle_us : float;  (** one [Regularity_oracle.check], microseconds (single run) *)
  speedup : float;  (** [oracle_us /. sweep_us] *)
}

type overhead = {
  off_events_per_s : float;  (** trace dial at {!Sbft_sim.Trace.Off}: the no-op fast path *)
  sampled_events_per_s : float;
  full_events_per_s : float;
  sampled_overhead_pct : float;  (** percent slower than [Off] (negative = faster, i.e. noise) *)
  full_overhead_pct : float;
}

type series_overhead = {
  base_events_per_s : float;  (** Zipfian kv run, trace off, series off *)
  on_events_per_s : float;  (** same run with per-shard series + online detector *)
  series_overhead_pct : float;  (** percent slower; the ISSUE target is <5 *)
}

type loadgen_overhead = {
  closed_ops_per_s : float;  (** {!Workload.run_kv} driving [ops_per_run] ops, wall-clock *)
  open_ops_per_s : float;
      (** {!Loadgen} open loop (constant rate under capacity) completing
          the same [ops_per_run] ops on an identical store *)
  loadgen_overhead_pct : float;
      (** percent slower {e per simulation event} (fired thunks net of
          each driver's own per-op pacing thunk), interleaved
          run-for-run with the closed driver; the two pacings provoke
          slightly different protocol traffic, so a raw ops/s ratio
          would gate schedule shape, not machinery.  The acceptance cap
          is 5. *)
  ops_per_run : int;  (** completed ops per timed run, identical on both sides *)
}

type fuzz_parallel_row = {
  domains : int;
  schedules_per_s : float;
      (** aggregate campaign throughput: total executed across all
          domains / wall-clock (each domain runs a full campaign) *)
  executed : int;
}

type t = {
  engine_events_per_s : float;  (** fired thunks/sec at trace [On] *)
  engine_runs : int;  (** scenario executions the rate was averaged over *)
  fuzz_schedules_per_s : float;
  fuzz_executed : int;
  fuzz_parallel : fuzz_parallel_row list;  (** {!Fuzz.run_parallel} at 1/2/4/8 domains *)
  checker : checker;
  overhead : overhead;
  series : series_overhead;
  loadgen : loadgen_overhead;
}

val synthetic_history :
  seed:int64 -> n_ops:int -> reads_per_write:int -> int Sbft_spec.History.t
(** Valid sequential-writer audit history (no violations, monotone
    timestamps): the checker's steady-state shape.  Exposed for E21. *)

val run : ?quick:bool -> unit -> t
(** Measure everything.  [quick] shrinks budgets to smoke-test levels
    (sub-second total, 1k-op history) for tests and CI sanity runs. *)

val to_json : t -> Sbft_sim.Json.t

val pp : Format.formatter -> t -> unit

val compare_to_baseline :
  tolerance:Sbft_analysis.Diff.tolerance ->
  baseline:Sbft_sim.Json.t ->
  t ->
  Sbft_analysis.Diff.report
(** The CI gate, a front-end over {!Sbft_analysis.Diff}: flatten the
    baseline and {!to_json} down to the gated paths and band them.
    Gated relatively, each in its worse direction: engine events/sec,
    fuzz schedules/sec, each [fuzz_parallel] domain row, checker
    [sweep_us_per_history] (lower is better), tracing-off events/sec
    (the no-op fast path must not silently grow a cost), series-on kv
    events/sec and open-loop generator ops/sec.  A row moving the
    better way is [Ok] however far it moves.  The series and loadgen
    [overhead_pct] rows are gated absolutely instead: [a] is the 5%
    budget and the row [Fail]s beyond it.  {!Sbft_analysis.Diff.drifted}
    is then exactly the regressions; a gated path missing from the
    baseline is a [NEW] row, so a renamed metric cannot pass as
    clean. *)
