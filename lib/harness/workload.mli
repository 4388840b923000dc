(** Closed-loop workload generator.

    Drives a {!Register.t} with a population of sequential clients:
    each client issues an operation, waits for its completion, thinks
    for a random interval, and repeats, until it has issued its quota.
    Written values are globally unique (a requirement of the spec
    checkers).  Reads that abort still count against the quota — the
    stabilization experiments measure exactly that.

    The generator is deterministic given the register's engine seed
    and [spec]; all randomness (operation mix, think times) is drawn
    from a stream split off the engine's master PRNG. *)

type spec = {
  ops_per_client : int;
  write_ratio : float;  (** probability an op is a write (for clients allowed to write) *)
  think_max : int;  (** think time uniform in [1, think_max] ticks *)
  value_base : int;  (** first value to write; successive writes increment *)
}

val default : spec
(** 20 ops/client, 0.3 write ratio, think ≤ 20 ticks, values from 1000. *)

type outcome = {
  issued_writes : int;
  issued_reads : int;
  wall_ticks : int;  (** virtual time consumed by the whole run *)
  livelocked : bool;  (** the event budget fired before all clients finished *)
}

val run : ?spec:spec -> ?max_events:int -> Register.t -> outcome
(** Drive the register to completion (or budget exhaustion). *)

val run_mixed :
  ?spec:spec -> ?max_events:int -> writers:int list -> readers:int list -> Register.t -> outcome
(** Like {!run} but with explicit role assignment (e.g. one writer and
    many readers for the SWMR experiments). *)

(** {1 KV store driver}

    The same closed-loop client population pointed at the sharded
    store, with Zipfian hot-key skew: key ranks are drawn from a
    precomputed Zipf([zipf_s]) CDF, so a few hot keys (and therefore a
    few hot shards) absorb most of the traffic — the skew every real
    cloud workload shows, and what makes the per-shard series worth
    watching. *)

type kv_spec = {
  kv_ops_per_client : int;
  kv_write_ratio : float;  (** probability an op is a put *)
  kv_think_max : int;  (** think time uniform in [1, kv_think_max] ticks *)
  kv_value_base : int;
  keys : int;  (** key-space size; keys are ["key-<rank>"] *)
  zipf_s : float;  (** skew exponent: 0 = uniform, ~1 = classic Zipf *)
}

val default_kv : kv_spec
(** 50 ops/client, 0.3 put ratio, think ≤ 20, 64 keys, s = 1.1. *)

type kv_outcome = {
  issued_puts : int;
  issued_gets : int;
  aborted_gets : int;  (** gets answering [Abort] (still complete) *)
  kv_wall_ticks : int;
  kv_livelocked : bool;
}

val run_kv : ?spec:kv_spec -> Sbft_kv.Store.t -> kv_outcome
(** Drive every store client to its quota (or exhaustion of a 50M-event
    budget).
    Deterministic given the store's engine seed and [spec]. *)

(** {1 Samplers}

    The Zipfian key sampler, exposed so the statistical test tier can
    hold it to its target distribution (chi-squared goodness of fit)
    and so {!Loadgen} shares the exact same key-skew machinery. *)

val zipf_cdf : keys:int -> s:float -> float array
(** Normalized CDF over key ranks [0 .. keys-1] with weight
    [1/(rank+1)^s].  The boundaries are defined, not accidental:
    [s = 0] degenerates to uniform and [keys = 1] to the constant
    sampler [[|1.0|]].  Raises [Invalid_argument] on [keys < 1] or on a
    NaN or negative [s] — a negative exponent inverts the skew, and a
    NaN CDF would make {!zipf_pick} silently return rank 0 forever. *)

val zipf_pick : Sbft_sim.Rng.t -> float array -> int
(** Binary-search one rank from a {!zipf_cdf} (one uniform draw). *)
