(** Reliable FIFO point-to-point message network.

    This is the channel model the register protocols run over: every
    ordered pair of endpoints is connected by a reliable FIFO channel —
    messages are not created, modified or lost, and are delivered in
    send order — exactly the paper's §II assumption.  (The paper notes
    this layer can itself be built over lossy non-FIFO channels with a
    stabilization-preserving data-link; see {!Datalink} for that
    construction.)

    FIFO order is preserved structurally: each directed channel tracks
    the delivery time of its last message and later sends are never
    scheduled before it, whatever the delay policy draws.

    The network also hosts the fault hooks the experiments need:
    per-channel slowdown (the "slow server" schedules of the proofs),
    endpoint crash, message tampering, and injection of forged
    messages (initial channel corruption of the transient-fault
    model). *)

type 'msg t

type 'msg handler = dst:int -> src:int -> 'msg -> unit
(** A receive handler, called with the endpoint the message reached
    ([dst]) and its sender ([src]); [dst] lets one closure serve many
    endpoints. *)

type transport =
  | Direct  (** reliable FIFO channels, delays drawn from the policy *)
  | Over_datalink of { capacity : int; loss : float; max_delay : int }
      (** every directed channel is a {!Datalink} running over a
          bounded lossy non-FIFO channel — the paper's §II stack built
          all the way down.  FIFO reliability is then a property the
          data-link {e earns} rather than an axiom; expect an order of
          magnitude more low-level packets. *)

type 'msg kinds = { index : 'msg -> int; names : string array }
(** A dense message-kind index: [index m] is in
    [[0, Array.length names)] and [names.(index m)] names the kind.
    The per-kind send counter is then an array slot, and trace and
    drop events read the kind's name from the table without hashing. *)

val create :
  Sbft_sim.Engine.t ->
  endpoints:int ->
  ?servers:int ->
  delay:Delay.t ->
  ?kinds:'msg kinds ->
  ?transport:transport ->
  unit ->
  'msg t
(** [create engine ~endpoints ~delay ()] builds a network of
    [endpoints] endpoints (ids [0 .. endpoints-1]).  [kinds] names
    message constructors for per-kind send counters
    ([net.sent.<name>]) in the engine metrics and for the [kind] of
    trace events; without it no per-kind counter is kept and trace
    events carry an empty kind.
    [delay] applies to [Direct] transport; [Over_datalink] channels
    pace themselves by their own [max_delay]. Default [Direct].
    [servers] names the endpoints that run server automata (ids
    [0 .. servers-1]).  It sets where channel state lives (below), and
    the engine self-profiler charges handler time at those endpoints to
    [Server_step], the rest to [Client_step].  Default [0]: no
    endpoint is a server.

    A fresh network costs O([endpoints]) words.  Per-channel state
    appears on first use: a channel's delivery frontier on its first
    transmission, the slow-factor table on the first {!set_slow}, and
    the data-link table only under [Over_datalink].  A frontier lives
    in one endpoint's row, which grows only as far as its channels
    need.  A client's row holds both directions of its channels to the
    servers, [2 * servers] ints, and grows to [servers + endpoints]
    from its first send to another client.  A server's row holds only
    its channels to other servers, which carry garbage and forgeries
    alone, so a server keeps nothing for the clients it answers.  A
    client that talks only to servers, as in the server-based register,
    so costs O([servers]) words and the servers nothing per client;
    a register's channel state grows with the clients that have used
    it, not with [endpoints].  Without servers, an endpoint's row spans
    every endpoint from its first send. *)

val engine : 'msg t -> Sbft_sim.Engine.t

val register : 'msg t -> int -> 'msg handler -> unit
(** Attach the receive handler of endpoint [id]. Replaces any previous
    handler (used when a correct server is swapped for a Byzantine
    one).  One handler may sit in many slots and tell its endpoints
    apart by [dst]: a register's client endpoints share one.  A
    message to an endpoint without a handler is dropped. *)

val send : 'msg t -> src:int -> dst:int -> 'msg -> unit
(** Enqueue a message. Delivery is scheduled per the delay policy,
    FIFO-constrained per channel. Sends from a crashed endpoint are
    dropped. *)

val crash : 'msg t -> int -> unit
(** Endpoint [id] stops sending and receiving, permanently. *)

val crashed : 'msg t -> int -> bool

val set_slow : 'msg t -> src:int -> dst:int -> factor:int -> unit
(** Multiply the drawn delay on channel [src -> dst] by [factor].
    [factor = 1] restores normal speed. *)

val set_slow_node : 'msg t -> int -> factor:int -> unit
(** Slow every channel into and out of a node. *)

val set_tamper : 'msg t -> (src:int -> dst:int -> 'msg -> 'msg option) option -> unit
(** Install a tampering hook, applied at delivery time: [None] drops
    the message, [Some m'] replaces it.  Models in-flight corruption
    during a transient fault.  Passing [None] uninstalls. *)

val inject : 'msg t -> src:int -> dst:int -> 'msg -> unit
(** Place a forged message in channel [src -> dst], delivered ahead of
    subsequent legitimate traffic — models arbitrary initial channel
    contents. *)

val corrupt_channels : 'msg t -> Sbft_sim.Rng.t -> density:float -> (Sbft_sim.Rng.t -> 'msg) -> unit
(** [corrupt_channels t rng ~density garbage] models arbitrary initial
    channel contents: for every ordered pair of distinct endpoints, in
    order of sender then receiver, it draws [Rng.chance rng density]
    and on success {!inject}s one [garbage rng] message. *)

val partition : 'msg t -> groups:int list list -> unit
(** Split the network: endpoints in different groups (unlisted
    endpoints form isolated singletons) cannot exchange {e new}
    messages; sends across the cut are parked, in order.  Messages
    already in flight still arrive.  Reliable channels make a
    partition an {e unbounded-delay window}, not a loss event — on
    {!heal} every parked message is released in FIFO order, so the
    paper's channel axioms hold across the episode and operations
    stalled by the cut complete afterwards. *)

val heal : 'msg t -> unit
(** End the partition and release parked traffic. *)

val partitioned : 'msg t -> src:int -> dst:int -> bool

val parked : 'msg t -> int
(** Messages currently withheld by the partition. *)

val in_flight : 'msg t -> int
(** Messages currently queued for delivery. *)

val node_counters : 'msg t -> (int * int) array
(** Per-endpoint [(sent, delivered)] counts — the per-node breakdown
    of the metrics artifact. *)

val observe : 'msg t -> (event:[ `Send | `Deliver ] -> src:int -> dst:int -> 'msg -> unit) option -> unit
(** Install a wiretap called on every send and every delivery (after
    tamper).  Used by the sequence-diagram renderer and flow analyses;
    [None] uninstalls.  The observer must not send messages. *)

val current_span : 'msg t -> int
(** The span id of the operation currently executing, or
    {!Sbft_sim.Event.no_span} outside any span.  Sends inside a span
    stamp it on their [Msg_sent] event and carry it to the receiver,
    where it is reinstalled around the delivery handler — so replies
    (and forwards) inherit the span of the request that caused them
    without any protocol-level plumbing. *)

val with_span : 'msg t -> int -> (unit -> 'a) -> 'a
(** [with_span t span f] runs [f] with [span] installed as the current
    span context, restoring the previous context afterwards (even on
    exceptions).  Clients wrap the broadcast that initiates each
    operation phase; everything downstream inherits automatically. *)
