(** Schedule exploration: sweep the schedule space looking for
    counterexamples.

    A discrete-event run is a pure function of (seed, delay policy,
    adversary, corruption); this module enumerates grids of those and
    audits every run, so a protocol bug shows up as a concrete
    reproducible tuple rather than a flaky test.  It is the poor
    man's model checker: no exhaustiveness, but thousands of distinct
    schedules per second, each checked against the spec.  For
    {e composed} fault timelines beyond the fixed grid, see {!Fuzz},
    which mutates whole {!Scenario.t}s under coverage guidance.

    Used by the `explore` CLI subcommand and the slow test suite; the
    default grid covers every Byzantine strategy × several delay
    policies × {clean, corrupt-at-t0, fault storm}.  Storms run only on
    the strategy-free row: a storm brings its own f-budgeted Byzantine
    takeovers, and stacking them on f pre-installed Byzantine servers
    would exceed the model's bound by design. *)

type fault_mode =
  | Clean  (** no injected faults beyond the Byzantine strategy *)
  | Corrupt_t0  (** heavy corruption of everything at t = 0 *)
  | Storm  (** a random {!Sbft_byz.Fault_plan.storm} during the run *)

type scenario = {
  seed : int64;
  policy : string;  (** delay policy name *)
  strategy : string;  (** Byzantine strategy name, or "none" *)
  fault : fault_mode;
}

type failure = {
  scenario : scenario;
  kind : [ `Violation of string | `Livelock | `Starved | `Incomplete ];
}
(** [`Starved]: the run terminated but every read aborted — reader
    starvation (a liveness failure the paper's Lemma 4/6 machinery is
    supposed to prevent), kept distinct from [`Incomplete] (operations
    that never received any response, i.e. crash-like truncation) so
    triage does not conflate them. *)

type summary = {
  runs : int;
  failures : failure list;
  total_reads : int;
  total_aborts : int;
}

val classify :
  livelocked:bool ->
  completed_reads:int ->
  aborted_reads:int ->
  incomplete:int ->
  violations:string list ->
  scenario ->
  failure list
(** The failure taxonomy, exposed for tests: violations always report;
    otherwise livelock, else starvation (zero completed reads with
    nonzero aborts), else incompleteness. *)

val explore :
  ?n:int ->
  ?f:int ->
  ?ops_per_client:int ->
  ?seeds:int ->
  unit ->
  summary
(** Run the full grid: [seeds] seeds (default 5) × {!Scenario.policies} ×
    (every strategy + none) × the three fault modes, 4 clients each.
    Every run is audited for MWMR regularity after the last fault's
    first completed write; any violation, livelock, starvation or
    incomplete operation is a failure. *)

val pp_summary : Format.formatter -> summary -> unit
