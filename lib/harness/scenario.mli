(** One runnable scenario: the parameters of a [sbftreg run]
    invocation as a value.

    Record and replay must share a single code path — any drift between
    "what the CLI does" and "what the replayer does" shows up as false
    divergence.  So the whole run lives here: build the system with the
    named delay policy, install the Byzantine strategy, corrupt initial
    state, schedule the fault-plan timeline, attach telemetry, drive
    the workload, audit regularity (from the first write completing
    after the last injected fault) and emit the
    {!Sbft_sim.Event.Violation} records into the trace.  The CLI's
    [run] renders {!execute}'s result to stdout and artifact files;
    [replay] executes the scenario decoded from a trace header and
    compares event streams; the fuzzer mutates scenarios and triages
    their {!verdict}s.  A scenario converts losslessly to and from
    {!Sbft_analysis.Run_header.t}. *)

type t = {
  n : int;
  f : int;
  clients : int;
  seed : int64;
  ops_per_client : int;
  write_ratio : float;
  strategy : string option;
  corrupt : bool;
  delay : string;  (** delay-policy name, resolved against {!policies} *)
  plan : Sbft_byz.Fault_plan.t;  (** fault timeline, applied at t = 0 *)
  trace_cap : int;  (** events the violation forensics keep ({!forensic_events}) *)
  snapshot_every : int;  (** 0 = no telemetry snapshots *)
}

val policies : (string * Sbft_channel.Delay.t) list
(** The named delay policies a scenario may reference: uniform
    (several spreads), bimodal, skewed-servers.  Shared with the
    explorer's grid and the fuzzer's mutator. *)

val default : t
(** The CLI's defaults: n=6, f=1, 4 clients, seed 42, 25 ops/client,
    write ratio 0.3, uniform-10 delays, empty fault plan, trace cap
    4096, snapshots every 50 ticks. *)

val to_header :
  ?fingerprint:string ->
  ?verdict:string ->
  ?note:string ->
  ?trace_level:string ->
  t ->
  Sbft_analysis.Run_header.t
(** [verdict]/[note] let fuzz findings record their classification and
    provenance; both default empty.  [trace_level] records the level
    the accompanying event stream was captured at (default ["on"]) so
    replay knows whether to expect the full stream or a sampled
    subsequence. *)

val validate : t -> (unit, string) result
(** [Error] naming the [sbftreg run] flag of the first out-of-range
    parameter: n < 1, f < 0, n ≤ 3f (no write can gather 2f + 1 ACKs
    among n - f replies), clients < 1, ops_per_client < 0, a write
    ratio outside [0, 1], trace_cap < 1 or snapshot_every < 0.
    3f < n ≤ 5f is legal: the Theorem-1 demonstrations run below the
    bound. *)

val of_header : Sbft_analysis.Run_header.t -> (t, string) result
(** [Error] when the header's fault plan does not parse (e.g. an event
    naming a strategy this binary does not know), or naming the header
    field {!validate} rejects. *)

type run = {
  sys : Sbft_core.System.t;
  reg : Register.t;
  outcome : Workload.outcome;
  report : Sbft_spec.Regularity.report;
  telemetry : Telemetry.t;
  after : int;
      (** audit suffix start: first write begun and completed after the
          last fault-plan event (plan-free: the first completed write) *)
  last_fault : int;  (** {!Sbft_byz.Fault_plan.last_at} of the plan *)
  events : (int * Sbft_sim.Event.t) list;  (** every emitted event, in order *)
}

val execute :
  ?sink:Sbft_sim.Trace.sink ->
  ?level:Sbft_sim.Trace.level ->
  ?sample:float ->
  ?profile:bool ->
  ?on_system:(Sbft_core.System.t -> unit) ->
  ?collect_events:bool ->
  ?max_events:int ->
  t ->
  (run, string) result
(** Run the scenario to quiescence.  [sink] additionally observes every
    event as it is emitted (e.g. [Trace.jsonl_sink] for [--trace-out]).
    [level] (default {!Sbft_sim.Trace.On}) and [sample] set the trace
    dial: they live {e outside} the scenario record because they never
    affect the simulation — the same [t] produces the same history and
    verdict at every level, only [events] (and sinks) see more or less.
    At [Sampled], [events] is the head-sampled stream: whole span
    trees of a deterministic subset of operations, plus a sample of the
    span-less events; replay/corpus recording always uses [On].  [profile] arms the engine self-profiler
    ({!Sbft_sim.Profile}) and attributes checker time.  [on_system]
    runs once after the system is built and faults are scheduled but
    before the workload starts — the hook the CLI uses to attach a
    {!Progress} heartbeat; it must only observe, never perturb.
    [collect_events] (default [true]) materializes the [events] list;
    the fuzzer turns it off and feeds coverage through [sink] instead,
    skipping a cons per event plus the final reversal.  [max_events]
    bounds the engine (default 20M; the fuzzer lowers it).  [Error]
    before any simulation for a scenario {!validate} rejects, a
    [sample] outside [0, 1], an unknown strategy or delay-policy name,
    or a fault plan naming endpoints outside the system. *)

val forensic_events : level:Sbft_sim.Trace.level -> t -> run -> (int * Sbft_sim.Event.t) list
(** The event log {!Forensics} slices a violation's window from: the
    last [trace_cap] events of the run's [On]-level stream, oldest
    first.  At [On] that is the tail of [run.events] (so [run] must
    come from {!execute} at [level] with [collect_events]); at [Off]
    and [Sampled] the scenario is re-executed at [On], which emits the
    same stream because the trace level never changes the run. *)

val violation_kind : Sbft_spec.Regularity.violation -> string
(** Short tag for the event record: stale/future/unwritten/inversion/order. *)

val incomplete_ops : ?since:int -> 'ts Sbft_spec.History.t -> int
(** Operations invoked at or after [since] (default 0: all) that never
    got a response (crashed writer, truncated run, a client wedged by
    mid-operation corruption). *)

(** {1 Verdicts}

    The one-word classification of a run that fuzz triage, the shrinker
    and the regression corpus all share.  Ordered by severity:
    violations trump everything; a livelock (event budget exhausted)
    trumps starvation (all reads aborted — the protocol stayed live but
    never served a value, Lemma 4/6 territory); starvation trumps mere
    incompleteness. *)

type verdict =
  | Pass
  | Violation of string  (** kind of the first regularity violation *)
  | Livelock
  | Starved  (** zero completed reads, nonzero aborts *)
  | Incomplete  (** some operation never finished *)

val verdict_of_run : run -> verdict

val verdict_to_string : verdict -> string
(** ["ok"], ["violation:stale"], ["livelock"], ["starved"],
    ["incomplete"] — the form stored in run headers. *)

(** {1 Artifacts} *)

val record :
  path:string ->
  fingerprint:string ->
  note:string ->
  trace_level:Sbft_sim.Trace.level ->
  t ->
  run ->
  string
(** Write [run] as a replayable trace artifact: a header recording the
    scenario, its verdict, [note], the binary [fingerprint] and the
    level [run]'s events were captured at, then the events.  Returns
    the verdict string.  The one writer behind [run --trace-out],
    [fuzz --save]/[--save-corpus] and [shrink]. *)

type replayed = {
  scenario : t;
  verdict : verdict;  (** the re-execution's *)
  verdict_ok : bool;  (** the header records no verdict, or this one *)
  stream : Sbft_analysis.Replay.verdict;
      (** the recorded events against the re-execution's, compared at
          the header's trace level *)
}

val replay :
  Sbft_analysis.Run_header.t -> (int * Sbft_sim.Event.t) list -> (replayed, string) result
(** The one replay check: re-execute the scenario a header records and
    compare the verdict and the event stream with the recording.
    [Error] when the header does not decode to a runnable scenario. *)

val stabilization : t -> run -> Stabilization.t
(** A finalized one-shard detector bank over [run]'s history: windows
    of [snapshot_every] ticks (50 when snapshots are off), clocked from
    the plan's last fault. *)

val metrics_json : t -> run -> profile:Sbft_sim.Profile.report option -> Sbft_sim.Json.t
(** The [run --metrics-out] artifact ({!Artifacts.metrics_json}), with
    {!stabilization}'s bank. *)
