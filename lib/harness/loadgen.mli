(** Open-loop workload generation for the sharded KV store.

    The closed-loop drivers ({!Workload}) couple offered load to
    completion: a slow shard slows its own clients down, so queueing
    delay is invisible by construction.  This module decouples them.
    Simulated requests {e arrive} by a deterministic seeded rate
    process — whether or not earlier requests have finished — flow
    through per-shard admission queues, and are dispatched to a finite
    pool of store clients as they free up.  Offered vs. accepted vs.
    completed counts, queue depth and queue wait become first-class
    observables, which is what makes the saturation knee (and the SLO
    cost of operating past it) measurable at all.  Closed-loop kv
    sessions run through {!Workload.run_kv}.

    Everything is driven by the virtual clock and a PRNG stream split
    off the engine's master seed: same seed + same spec ⇒ bit-identical
    arrival schedule, metrics and artifacts, at every trace level. *)

type arrival =
  | Poisson of float  (** mean arrivals per tick; exponential interarrivals *)
  | Const of float  (** exactly [rate] arrivals per tick, evenly spaced *)
  | Ramp of float * float
      (** instantaneous rate sweeping linearly from the first to the
          second value across the run — one pass over the saturation
          knee *)

type mode = Open_loop of arrival

(** {1 Typed spec errors}

    A rate the virtual clock cannot represent is an error, not a
    clamp.  (The engine floors every scheduling delay at one tick; the
    naive one-thunk-per-arrival design would silently stretch any
    super-tick rate to 1 op/tick.  Batching arrivals per tick makes
    rates up to {!max_rate} exact; beyond that we refuse loudly.) *)

type error =
  | Invalid_rate of float  (** non-positive or non-finite *)
  | Rate_unrepresentable of { rate : float; max : float }
  | Invalid_duration of int
  | Invalid_mix of float  (** write ratio outside [0, 1] *)
  | Invalid_queue_cap of int
  | Invalid_keys of int
  | Invalid_zipf of float  (** NaN or negative skew exponent *)
  | Invalid_arrival of string  (** not in {!arrival_to_string}'s syntax *)

exception Invalid of error

val max_rate : float
(** Highest representable arrival rate, in ops per virtual tick. *)

val error_to_string : error -> string

val arrival_to_string : arrival -> string
(** The CLI surface syntax: ["poisson:RATE"], ["const:RATE"],
    ["ramp:A..B"]. *)

val arrival_of_string : string -> (arrival, error) result
(** Parse {!arrival_to_string}'s syntax; a malformed string is
    [Invalid_arrival].  Rates are range-checked by {!validate}, not
    here. *)

type spec = {
  mode : mode;
  duration : int;  (** arrival-generation span in virtual ticks *)
  ops : int option;  (** optional hard cap on offered arrivals *)
  write_ratio : float;  (** probability an arrival is a put *)
  keys : int;  (** key-space size; keys are ["key-<rank>"] *)
  zipf_s : float;  (** hot-key skew; 0 = uniform *)
  value_base : int;
  max_queue : int;  (** per-shard admission-queue capacity *)
}

val default : spec
(** Open-loop Poisson 0.5 ops/tick for 2000 ticks, 30% puts, 64 keys,
    Zipf 1.1, queue cap 1024. *)

val validate : spec -> (unit, error) result

(** {1 The deterministic arrival schedule}

    Exposed so tests can hold the generators to their distributions
    (chi-squared over slots) and assert bit-identical schedules for a
    given seed without running any protocol. *)

type slot = { at : int; batch : int }
(** [batch] arrivals fire [at] ticks after the run starts; slots are
    strictly increasing in [at] with [at >= 1]. *)

val schedule : ?ops:int -> rng:Sbft_sim.Rng.t -> duration:int -> arrival -> slot list
(** The full arrival schedule for one run: continuous arrival times
    accumulated from the process's interarrival gaps, charged to the
    integer tick that ends the containing interval.  Raises {!Invalid}
    on a bad rate or duration. *)

(** {1 Accounting} *)

type shard_counts = {
  s_offered : int;  (** arrivals hashed to this shard *)
  s_accepted : int;  (** admitted to the queue (or dispatched at once) *)
  s_rejected : int;  (** shed because the shard queue was full *)
  s_completed : int;  (** operations that answered (aborts included) *)
  s_aborted : int;  (** gets that answered [Abort] *)
  s_peak_queue : int;
}

type outcome = {
  offered : int;
  accepted : int;
  rejected : int;  (** [offered = accepted + rejected] always *)
  completed : int;
  completed_puts : int;
  completed_gets : int;
  aborted : int;
  incomplete : int;  (** gets answering [Incomplete] (freed, not completed) *)
  peak_queue : int;  (** max total queued across all shards *)
  peak_inflight : int;
  gen_ticks : int;  (** virtual span of the arrival schedule *)
  wall_ticks : int;  (** whole run including queue drain *)
  livelocked : bool;  (** the event budget fired first *)
  per_shard : shard_counts array;
  queue_series : Sbft_sim.Series.t array;
      (** per-shard queue-depth series ([kv.shard.<i>.queue]), armed
          exactly when the store's own streaming series are; [[||]]
          otherwise *)
}

val run : ?max_events:int -> spec:spec -> Sbft_kv.Store.t -> outcome
(** Drive the store: emit the arrival schedule, route each arrival to
    its key's shard queue (rejecting above [max_queue]), dispatch to
    free store clients round-robin across shards, then drain to
    quiescence.  Also bumps the per-shard
    offered/accepted/rejected counters, the end-to-end latency
    histograms ([kv.shard.<i>.e2e_ticks]: queue wait + service) and the
    fleet queue-wait histogram in the engine metrics.  Raises
    {!Invalid} on a bad spec. *)

val to_json : spec:spec -> outcome -> Sbft_sim.Json.t
(** The metrics artifact's ["loadgen"] member: mode, fleet counts and
    the per-shard admission table. *)

val pp : Format.formatter -> outcome -> unit
(** Human-readable fleet summary plus per-shard admission table. *)
