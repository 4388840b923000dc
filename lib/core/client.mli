(** Client automaton: the writer of Figure 1a, the reader of Figure 2a
    and the find_read_label procedure of Figure 3a.

    One endpoint carries both roles (any client may read and write, per
    the MWMR register).  Operations are event-driven: [write]/[read]
    start a state machine and return immediately; the continuation
    fires when the protocol's wait conditions are met.  A client runs
    one operation at a time — concurrency in experiments comes from
    {e many} clients, matching the paper's model where each process is
    sequential.

    Write (two phases): broadcast [GET_TS]; on [n - f] distinct
    timestamps compute [next] over them (the bounded-label dominating
    step); broadcast [WRITE(v, ts)]; complete on [n - f] responses of
    which at least [2f + 1] ACK.

    Read (one phase, label-fenced): pick a read label with fewer than
    [f+1] pending servers (FLUSH/FLUSH_ACK echoes clear stale
    pendings, exploiting FIFO — Lemma 5); send [READ(ℓ)] to servers
    proven safe for [ℓ]; on [n - f] replies from safe servers decide
    via the Weighted Timestamp Graph: a ⟨value, ts⟩ pair witnessed by
    [2f + 1] servers in the replies, else in the union with the
    servers' recent-write histories, else {b abort} (the legal answer
    during a transitory phase). *)

type read_outcome = Sbft_spec.History.read_outcome

type t

val create :
  Config.t ->
  Sbft_labels.Sbls.system ->
  Msg.t Sbft_channel.Network.t ->
  meters:Meters.t ->
  id:int ->
  t
(** Creates the automaton.  [id] must be a client endpoint id
    ([>= n]).  The caller routes the endpoint's deliveries to
    {!handle}.  Phase and total latencies go to [meters]. *)

val handle : t -> src:int -> Msg.t -> unit
(** The automaton's receive handler. *)

val id : t -> int

val busy : t -> bool

val write : ?op_id:int -> ?span_k:(int -> unit) -> t -> value:int -> (unit -> unit) -> unit
(** [write t ~value k] starts a write; [k] fires at completion.
    Raises [Invalid_argument] if the client is busy.

    [op_id] names the operation's span in the event trace — {!System}
    passes the history operation id so trace spans and checker
    verdicts speak about the same operations.  Without it, a fresh
    negative id is used.

    [span_k] receives the operation's run-global span id
    ({!Sbft_sim.Engine.fresh_span}) at invocation, before any message
    is sent — layers above (e.g. the kv store) use it to attach
    [Span_tag] attributes to the span. *)

val read : ?op_id:int -> ?span_k:(int -> unit) -> t -> (read_outcome -> unit) -> unit
(** [read t k] starts a read; [k] fires with the returned value or
    [Abort]. Raises [Invalid_argument] if the client is busy.
    [op_id] and [span_k] as in {!write}. *)

val last_write_ts : t -> Msg.ts option
(** Timestamp of this client's last completed write (recorded into the
    history for the order checks). *)

val corrupt : t -> Sbft_sim.Rng.t -> unit
(** Transient fault on an {e idle} client: scrambles the read-label
    matrix and the cached write timestamp.  It draws one
    [Sbft_sim.Rng.bool] per server, in id order, for the safe set; an
    idle client keeps no per-phase state, so it drops them, and its
    next read starts from an empty safe set as before.  Corrupting a
    client mid-operation models a crash during the operation, which
    the failure model treats as a failed operation — use
    {!abandon} for that; the draws then land in the running read's
    safe set. *)

val abandon : t -> unit
(** Abort the in-flight operation without completing it (client crash
    mid-operation). The continuation is dropped; the client returns to
    idle. No-op when idle. *)

val aborted_reads : t -> int
(** Reads this client finished with [Abort]. *)
