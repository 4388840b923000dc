(** Pseudo-stabilization detection: the repo's one answer to "did it
    stabilize?".

    The paper's central claim is a stabilization {e curve}: after the
    last transient fault, violations decay to zero.  A bank holds one
    {!Sbft_sim.Series.Detector} per shard plus a fleet-wide one; every
    op completion is fed to its shard's detector and to the fleet's
    with "dirty" = aborted read, and each declares its
    pseudo-stabilization point once [k] consecutive tumbling windows
    after the last fault are clean.

    Three feeders fill a bank: a running kv store ({!attach}), a
    recorded trace ({!of_events}) and a single-register history
    ({!of_history}).  All three consume op completions and the virtual
    clock only, so a run's verdicts are the same whichever feeder saw
    it, bit-identical across trace levels and under replay. *)

type t

val attach : ?k:int -> window:int -> after:int -> Sbft_kv.Store.t -> t
(** [attach ~window ~after store] registers a completion observer on
    [store], one shard per store shard.  [after] is the virtual time of
    the last planned fault (0 when none): the time-to-stabilize clock
    starts there.  [k] (default 3) is the clean-window streak that
    declares stabilization.  Attach {e before} issuing operations. *)

val of_events :
  ?k:int -> window:int -> after:int -> shards:int -> (int * Sbft_sim.Event.t) list -> t
(** Rebuild a kv bank offline from a trace: every completed operation
    ([Op_finished], outcome ≠ ["incomplete"]; dirty = ["abort"]),
    attributed to its shard through the kv store's [Span_tag].  Ops
    whose span carries no shard tag feed the fleet detector only. *)

val of_history : ?k:int -> window:int -> after:int -> 'ts Sbft_spec.History.t -> t
(** A one-shard bank over a single register's history: completed
    operations in completion-time order, dirty = aborted read. *)

val finalize : t -> now:int -> unit
(** Count the fully elapsed trailing silence up to [now] as clean
    windows.  A bank from {!attach} then records its verdicts into the
    store's engine metrics: [stab.shards_stabilized], per-shard samples
    in [stab.time_to_stabilize_ticks] and [stab.shard.<i>], and the
    fleet value in [stab.fleet.time_to_stabilize_ticks].  Idempotent. *)

val shard_state : t -> int -> Sbft_sim.Series.Detector.state

val time_to_stabilize : t -> int -> int option
(** Per-shard, virtual ticks from [after] to the start of the clean
    suffix; [None] while pending. *)

val fleet_time_to_stabilize : t -> int option

val stabilized_shards : t -> int

val to_json : t -> Sbft_sim.Json.t
(** [{window, k, after, stabilized_shards, fleet, shards: [...]}], the
    artifact's ["stabilization"] member. *)

val pp : Format.formatter -> t -> unit
