(** Coverage-guided schedule fuzzing.

    The paper's guarantees are universally quantified over schedules
    and transient faults; {!Explorer} sweeps a fixed grid, but the grid
    cannot compose novel fault {e timelines} (a takeover here, a
    partition window there, corruption mid-write).  This module
    searches that space: it mutates whole {!Scenario.t}s — seed, delay
    policy, workload mix, Byzantine strategy, fault-plan timeline —
    executes each candidate, and keeps in its corpus the schedules
    whose traces touch {!Sbft_sim.Coverage} keys never seen before, so
    mutation energy concentrates on runs that reach new protocol
    states rather than replaying the same quiescent exchange.

    Any run whose {!Scenario.verdict_of_run} is not [Pass] is a
    {e finding}; pipe it through {!Shrink} for a minimal reproducer.
    The whole campaign is deterministic given [seed] (the wall-clock
    budget, when supplied, can only truncate it earlier on a slower
    machine — per-step behaviour never varies).

    Mutations respect the model: never more than [f]
    simultaneously-Byzantine servers (a pre-installed strategy counts
    as all [f]), no client crashes (their unfinished operations would
    read as fake termination failures), no partitions without a
    matching heal. *)

type finding = {
  scenario : Scenario.t;
  verdict : Scenario.verdict;  (** never [Pass] *)
  step : int;  (** which fuzzing step produced it, for reproduction *)
}

type report = {
  executed : int;
  skipped : int;  (** scenarios that failed to execute (should be 0) *)
  corpus : Scenario.t list;  (** scenarios retained for new coverage, oldest first *)
  coverage : int;  (** total distinct coverage keys touched *)
  findings : finding list;
  stopped_by : [ `Iterations | `Budget | `Findings ];
}

val mutate : Sbft_sim.Rng.t -> Scenario.t -> Scenario.t
(** One mutation step (exposed for tests): perturbs exactly one of
    seed, delay policy, write ratio, ops per client, client count,
    initial corruption, Byzantine strategy, or the fault plan; then
    re-establishes the f-budget and caps total operations. *)

val run :
  ?base:Scenario.t ->
  ?iterations:int ->
  ?budget_s:float ->
  ?max_findings:int ->
  ?max_events:int ->
  ?log:(string -> unit) ->
  seed:int64 ->
  unit ->
  report
(** Run a campaign: execute [base] (seeding corpus and coverage), then
    up to [iterations] mutants of corpus parents, stopping early when
    [budget_s] seconds of wall-clock time elapse (monotonic clock — a
    campaign blocked on trace I/O still stops on schedule) or
    [max_findings] findings accumulate.  [max_events] bounds each single execution (default 4M,
    well above any honest run at the capped workload sizes).  [log]
    receives one line per notable step. *)

val pp_report : Format.formatter -> report -> unit

(** {1 Domain-parallel campaigns}

    One independent deterministic campaign per OCaml domain.  Domain 0
    uses the caller's seed verbatim; domain [i] a fixed derivation
    {!domain_seed}.  Retention stays local to each domain (the per-seed
    determinism contract: a domain's campaign produces the byte
    identical corpus it produces single-threaded), and the merge runs
    after every domain has joined, in domain order — so for fixed
    seeds the merged corpus equals the union of the single-domain
    corpora, at any domain count, on any scheduling. *)

val domain_seed : seed:int64 -> int -> int64
(** [domain_seed ~seed i] is the campaign seed of domain [i]:
    [seed] itself at [i = 0], a splitmix-style mix otherwise. *)

type domain_report = { domain : int; seed_used : int64; report : report }

type parallel_report = {
  domains : int;
  per_domain : domain_report list;  (** in domain order *)
  merged_corpus : Scenario.t list;
      (** the per-domain corpora in domain order, each in retention
          order, a scenario retained by several domains kept at its
          first occurrence *)
  merged_coverage : int;  (** distinct coverage keys across all domains *)
  merged_findings : (int * finding) list;  (** tagged with their domain *)
  total_executed : int;
  total_skipped : int;
}

val run_parallel :
  ?base:Scenario.t ->
  ?iterations:int ->
  ?budget_s:float ->
  ?max_findings:int ->
  ?max_events:int ->
  ?log:(string -> unit) ->
  ?domains:int ->
  seed:int64 ->
  unit ->
  parallel_report
(** Fan [domains] (default 1) campaigns out across domains, each with
    {!run}'s semantics at its {!domain_seed} and the {e same}
    [iterations]/[budget_s]/[max_findings]/[max_events] — so total work
    scales with [domains].  Worker log lines are buffered and replayed
    through [log] after the joins, prefixed ["[d<i>] "], never
    concurrently. *)

val pp_parallel_report : Format.formatter -> parallel_report -> unit
