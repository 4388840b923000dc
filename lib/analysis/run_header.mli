(** The run header embedded as the first record of every [--trace-out]
    artifact.

    A trace that names its own seed, topology, delay policy, workload
    and fault timeline is a self-contained repro: [sbftreg replay]
    re-executes the run from the header alone and diffs the
    regenerated event stream against the recorded one, so any saved
    trace doubles as a regression test.  The [fingerprint] (a digest
    of the producing binary) detects the other failure mode — same
    inputs, different code — and turns a divergence report into a
    bisection anchor.

    Schema v2 adds the fields that make fuzz findings replayable:
    [delay_policy] names the message-delay distribution, [plan] is the
    fault timeline in {!Sbft_byz.Fault_plan.to_strings} form, [verdict]
    records the checker's classification of the recorded run (the
    regression corpus asserts it on every replay), and [note] is
    free-form provenance (e.g. which lemma a corpus entry exercises).
    All four default sensibly when absent, so schema-1 artifacts still
    load. *)

type t = {
  schema : int;  (** artifact format version, bumped on breaking changes *)
  seed : int64;
  n : int;
  f : int;
  clients : int;
  ops_per_client : int;
  write_ratio : float;
  strategy : string option;  (** Byzantine strategy name, if installed *)
  corrupt : bool;  (** corrupt_everything at t = 0 *)
  delay_policy : string;  (** named delay policy (see [Scenario.policies]) *)
  plan : string list;  (** fault timeline, one compact event string each *)
  verdict : string;  (** recorded checker verdict, "" = not recorded *)
  note : string;  (** free-form provenance, e.g. the lemma exercised *)
  trace_cap : int;  (** events a violation's forensic dump keeps *)
  snapshot_every : int;  (** server-state snapshot period, 0 = off *)
  trace_level : string;
      (** {!Sbft_sim.Trace.level_to_string} of the level the artifact
          was recorded at; ["sampled"] artifacts hold a deterministic
          subsequence of the full stream, and replay checks
          subsequence containment instead of equality.  Absent in
          pre-PR6 artifacts, defaulting to ["on"]. *)
  fingerprint : string;  (** digest of the producing executable, "" = unknown *)
}

val schema_version : int

val default_delay_policy : string

val default_trace_level : string

val make :
  ?strategy:string option ->
  ?corrupt:bool ->
  ?delay_policy:string ->
  ?plan:string list ->
  ?verdict:string ->
  ?note:string ->
  ?trace_cap:int ->
  ?snapshot_every:int ->
  ?trace_level:string ->
  ?fingerprint:string ->
  seed:int64 ->
  n:int ->
  f:int ->
  clients:int ->
  ops_per_client:int ->
  write_ratio:float ->
  unit ->
  t

val to_json : t -> Sbft_sim.Json.t
(** [{"header": {...}}] — distinguishable from event records, which
    carry ["ev"]. *)

val of_json : Sbft_sim.Json.t -> (t, string) result

val is_header : Sbft_sim.Json.t -> bool

val pp : Format.formatter -> t -> unit
