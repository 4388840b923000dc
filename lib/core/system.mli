(** A complete register deployment: n servers, a set of clients, the
    network between them, and the run's recorded history.

    This is the library's main entry point.  Operations are recorded
    into a {!Sbft_spec.History.t} with invocation/response times on the
    simulator clock, so any run can be audited by the spec checkers
    afterwards.  Fault hooks (Byzantine takeover, transient
    corruption) live here so experiments can script whole scenarios
    against one handle. *)

type t

val create :
  ?seed:int64 ->
  ?delay:Sbft_channel.Delay.t ->
  ?trace_level:Sbft_sim.Trace.level ->
  ?sample:float ->
  ?transport:Sbft_channel.Network.transport ->
  ?engine:Sbft_sim.Engine.t ->
  Config.t ->
  t
(** Build and wire a deployment. Default seed [42L], default delay
    [Delay.uniform ~max:10], default transport [Direct].
    [trace_level]/[sample] configure the engine trace (see
    {!Sbft_sim.Engine.create}); neither perturbs the simulation itself.
    Pass [Over_datalink] to run the register over the full channel
    stack — stabilizing data-links over bounded lossy non-FIFO channels
    — at roughly an order of magnitude more low-level packets.  Pass
    [engine] to share one virtual clock across several deployments
    (e.g. the shards of {!Sbft_kv.Store}); [seed] and the trace options
    are then ignored in favour of the shared engine's. *)

val config : t -> Config.t

val engine : t -> Sbft_sim.Engine.t

val network : t -> Msg.t Sbft_channel.Network.t

val label_system : t -> Sbft_labels.Sbls.system

val server : t -> int -> Server.t
(** By endpoint id, [0 <= id < n]. *)

val client : t -> int -> Client.t
(** By endpoint id, [n <= id < n + clients].  Client automata are
    created on their endpoint's first use (this call, an operation, a
    delivery or {!corrupt_everything}); creation draws no randomness
    and schedules nothing, so it never changes the run. *)

val history : t -> Msg.ts Sbft_spec.History.t

(** {1 Operations} *)

val write :
  t -> client:int -> value:int -> ?span_k:(int -> unit) -> ?k:(unit -> unit) -> unit -> unit
(** Start a write by client endpoint [client]; recorded in the
    history. [k] fires after the write completes.  [span_k] receives
    the operation's run-global span id at invocation (see
    {!Client.write}). *)

val read :
  t -> client:int -> ?span_k:(int -> unit) -> ?k:(Client.read_outcome -> unit) -> unit -> unit

val run : ?until:int -> ?max_events:int -> t -> unit
(** Drive the engine (see {!Sbft_sim.Engine.run}). *)

val quiesce : ?max_events:int -> t -> unit
(** Run until no events remain. Raises {!Sbft_sim.Engine.Budget_exhausted}
    if the event budget (default 10 million) fires first. *)

(** {1 Faults} *)

val corrupt_server : t -> int -> severity:[ `Light | `Heavy ] -> unit

val corrupt_client : t -> int -> unit

val corrupt_channels : t -> density:float -> unit
(** For each ordered endpoint pair, with probability [density] inject
    one garbage message into that channel — arbitrary initial channel
    contents. *)

val corrupt_everything : t -> severity:[ `Light | `Heavy ] -> unit
(** The adversarial initial configuration: every server, every idle
    client and a dense sprinkling of channel garbage. *)

val replace_server_handler : t -> int -> (src:int -> Msg.t -> unit) -> unit
(** Install an arbitrary message handler in place of server [id] — the
    Byzantine takeover hook used by {!Sbft_byz}. The correct automaton
    keeps its state but no longer receives messages. *)

val rng : t -> Sbft_sim.Rng.t
(** A PRNG split off the engine's master stream, reserved for fault
    injection so adversary draws do not perturb protocol scheduling. *)

(** {1 Inspection} *)

val server_states : t -> (int * int * Msg.ts) list
(** [(id, value, ts)] for every server. *)

val count_holding : t -> value:int -> ts:Msg.ts -> int
(** Servers witnessing the pair (Lemma 2's measure). *)

val total_aborted_reads : t -> int
