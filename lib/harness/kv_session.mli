(** One session against the sharded key-value store: the body of
    [sbftreg kv] and [sbftreg watch], which only parse flags into a
    {!spec} and print the {!outcome}. *)

type spec = {
  shards : int;
  n : int;  (** servers per shard; must exceed 5f *)
  f : int;
  seed : int64;
  keys : int;  (** preloaded keys ["key-0"] .. *)
  ops : int;  (** closed loop: operations per client *)
  clients : int;
  doom : bool;  (** key-0's shard: takeover + corruption 300 ticks in *)
  fault_at : int option;  (** ticks in: corrupt shards [0 .. fault_shards-1] *)
  fault_shards : int;
  zipf : float;  (** key-popularity skew; 0 = uniform *)
  window : int;  (** series window; 0 = no series or alerts, 50-tick detector *)
  stab_k : int;  (** clean windows that declare a shard stable *)
  trace_level : Sbft_sim.Trace.level;
  sample : float;  (** sampling rate at {!Sbft_sim.Trace.Sampled} *)
  profile : bool;  (** arm the engine self-profiler *)
  slo : Slo.target;
  arrival : Loadgen.arrival option;  (** [Some] runs the open loop *)
  duration : int;  (** open loop: arrival-generation span *)
  mix : float;  (** open loop: write ratio *)
  total_ops : int option;  (** open loop: cap on offered arrivals *)
  max_queue : int;  (** open loop: per-shard admission-queue capacity *)
}

val default : spec
(** [sbftreg kv]'s defaults: closed loop, 4 shards, 8 keys, 3 clients
    doing 30 ops each, full trace. *)

type session = {
  store : Sbft_kv.Store.t;
  stabilization : Stabilization.t;
  alerts : Alerts.t option;  (** present exactly when the series are on *)
  doomed : (int * int) option;  (** [--doom]: the shard and the absolute fault time *)
  faulted : (int * int) option;  (** [--fault-at]: shards hit and the absolute fault time *)
}

type workload = Closed of Workload.kv_outcome | Open of Loadgen.spec * Loadgen.outcome

type outcome = {
  session : session;
  workload : workload;
  checked : int;  (** reads the audit checked *)
  violations : int;
  slo : Slo.report;
  profile : Sbft_sim.Profile.report option;  (** when [spec.profile] *)
}

val run :
  on_store:(Sbft_kv.Store.t -> unit) ->
  on_start:(session -> unit) ->
  spec ->
  (outcome, string) result
(** Validate the spec, build the store, preload every key, schedule the
    faults, attach the stabilization bank (and the alerts when the
    series are on), drive {!Workload.run_kv} or, given an arrival
    process, {!Loadgen.run}; then close the streaming pipeline and
    audit regularity from the last fault on.  [on_store] sees the store
    before any key is preloaded (where [kv] attaches its trace sink and
    heartbeat), [on_start] the session just before the workload starts
    (where [watch] attaches its dashboard); both must only observe.
    [Error], before any simulation, names the flag of the first
    out-of-range field. *)

val metrics_json : spec -> outcome -> Sbft_sim.Json.t
(** The [kv --metrics-out] artifact ({!Artifacts.metrics_json}). *)
