(** A sharded key-value store built on the stabilizing register — the
    cloud-storage service the paper's introduction motivates.

    Keys are strings; each key is one MWMR regular register.  The key
    space is hash-partitioned across [shards] replica groups of [n]
    servers tolerating [f] Byzantine failures each — the standard shape
    of a replicated cloud store, with per-group fault thresholds.

    {b Modeling note.}  On a real deployment each physical server
    multiplexes one register automaton per key it hosts.  The
    simulation instantiates those automata as one register deployment
    per (shard, key), lazily on first touch, all sharing a single
    virtual clock; physical co-residency is captured by {e correlated
    fault injection} — compromising or corrupting a shard applies to
    every key register it hosts, current and future.  Per-key protocol
    behaviour and the fault coupling are exactly preserved; per-server
    queueing across keys is not modelled.

    Semantics inherited per key: MWMR regularity, tolerance of [f]
    Byzantine servers per shard, pseudo-stabilization after transient
    corruption, [Abort] as the transitory-phase answer.  There are no
    cross-key ordering guarantees — each key is an independent regular
    register, which gives exactly per-key regularity and nothing more.

    Values are integers at this layer (the register's value type);
    string payloads belong in an external blob table keyed by these
    integers, as in any pointer-based store. *)

type t

type outcome = Sbft_spec.History.read_outcome

type shard_series = {
  flow : Sbft_sim.Series.t;
      (** one observation per completed op: 1.0 for an abort, 0.0 for a
          success — window count = op volume, window mean = abort rate *)
  lat : Sbft_sim.Series.t;
      (** successful-op latency in virtual ticks, per-window quantile
          digest armed *)
}

type observer = shard:int -> time:int -> ok:bool -> ticks:int -> unit

val create :
  ?seed:int64 ->
  ?delay:Sbft_channel.Delay.t ->
  ?trace_level:Sbft_sim.Trace.level ->
  ?sample:float ->
  ?trace_capacity:int ->
  ?transport:Sbft_channel.Network.transport ->
  ?series_window:int ->
  shards:int ->
  n:int ->
  f:int ->
  clients:int ->
  unit ->
  t
(** [clients] is the number of logical store clients; each holds one
    connection (client endpoint) into every key register it touches.
    [trace_level]/[sample]/[trace_capacity] configure the shared
    engine's trace (see {!Sbft_sim.Engine.create}); the store's own
    per-shard metrics are always on — counters and histograms are part
    of the engine metrics, not the trace.

    [series_window] switches on the streaming per-shard series
    ({!shard_series}): tumbling windows of that many virtual ticks,
    keeping the last {!series_keep} closed windows per shard.  Off by
    default — the per-op cost is small but not zero. *)

val series_keep : int
(** Closed windows each streaming series keeps: 64. *)

val shard_count : t -> int

val client_count : t -> int

val shard_of_key : t -> string -> int
(** The hash partition (FNV-1a mod shards); exposed for tests and
    placement-aware experiments. *)

val engine : t -> Sbft_sim.Engine.t

val put : t -> client:int -> key:string -> value:int -> ?k:(unit -> unit) -> unit -> unit
(** [put t ~client ~key ~value]: [client] is a logical index in
    [0 .. clients-1].  Raises if the client has another operation in
    flight {e on the same key}. *)

val get : t -> client:int -> key:string -> ?k:(outcome -> unit) -> unit -> unit

val quiesce : ?max_events:int -> t -> unit

(** {2 Streaming observability}

    The store is the layer that knows each operation's shard, so it is
    where completions fan out: into the per-shard series (when
    [series_window] was given) and into registered observers.  Both are
    driven by op completions and the virtual clock — never the trace —
    so they are bit-identical across trace levels and under replay. *)

val add_observer : t -> observer -> unit
(** Called on every put/get completion (aborted gets included,
    [Incomplete] excluded), in registration order. *)

val series_enabled : t -> bool

val series_window : t -> int option
(** The tumbling-window width the store was created with, when series
    are on — so companion series (e.g. the load generator's queue-depth
    series) can tile time identically. *)

val shard_series : t -> int -> shard_series option
(** [None] when the store was created without [series_window]. *)

val all_series : t -> shard_series list
(** Every shard's series in shard order; [[]] when series are off. *)

val roll_series_to : t -> time:int -> unit
(** Close every window ending at or before [time] on all shards — the
    end-of-run flush before reading {!shard_series} back. *)

val apply_to_shard : t -> shard:int -> (Sbft_core.System.t -> unit) -> unit
(** Correlated fault injection: run the hook on every key register the
    shard currently hosts and on every one it creates later.  Use with
    {!Sbft_byz.Strategy.install_all}, {!Sbft_core.System.corrupt_everything},
    etc. *)

val corrupt_everything : t -> severity:[ `Light | `Heavy ] -> unit
(** Transient corruption across every shard (current and future key
    registers). *)

val check_regular : ?after:int -> t -> int * int
(** [(reads_checked, violations)] summed over every key's register
    audit. *)

val keys_touched : t -> string list
(** Sorted. *)

val ops_issued : t -> int

val pp_stats : Format.formatter -> t -> unit
