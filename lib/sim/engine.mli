(** Discrete-event simulation engine.

    The engine owns a virtual clock, an event queue of thunks, a master
    PRNG and the run-wide metrics/trace sinks.  Everything above it —
    channels, protocol automata, fault injectors — is expressed as
    thunks scheduled at future virtual times.  The clock only advances
    when an event fires, and events fire in (time, seq) order, where
    seq is the insertion order, so a run is a pure function of
    [(seed, scheduled work)].

    The queue is a timing wheel of 256 one-tick FIFO buckets.  An
    event due fewer than 256 ticks ahead is appended to its bucket;
    one due later goes to a {!Heap} and stays there until it fires,
    and each pop compares the two heads by (time, seq).  Two
    invariants make a bucket hold one due time in seq order: no event
    is scheduled before the clock, and seqs only grow.  Scheduling and
    firing a wheel event are O(1): store the thunk, then clear its
    slot.  The heap alone sifted on both, swapping a payload pointer
    through the write barrier at every level: at kv's ~170 pending
    events a schedule+fire cost 305 ns on the heap and costs 52 ns on
    the wheel (the E12 micro row). *)

type t

val create :
  ?trace_level:Trace.level ->
  ?sample:float ->
  seed:int64 ->
  unit ->
  t
(** Fresh engine at virtual time 0.  [trace_level] (default
    {!Trace.Off}) sets the trace dial, and [sample] configures the
    deterministic sampler used at {!Trace.Sampled} (see
    {!Trace.create}).  None of these affect the simulation itself — a
    run is a pure function of [(seed, scheduled work)] at every trace
    level. *)

val now : t -> int
(** Current virtual time. *)

val rng : t -> Rng.t
(** The engine's master PRNG. Subsystems should {!Rng.split} it once at
    construction rather than drawing from it during the run. *)

val metrics : t -> Metrics.t

val trace : t -> Trace.t

val profile : t -> Profile.t
(** The engine's self-profiler.  Always allocated, disabled by default;
    {!Profile.enable} arms it.  Disabled it costs one branch per probe,
    so instrumented subsystems can probe unconditionally. *)

val events_fired : t -> int
(** Total thunks executed so far.  This is the engine's raw throughput
    denominator — meaningful even with tracing {!Trace.Off}, when no
    event list exists to count. *)

val fresh_span : t -> int
(** Allocate a run-unique span id (a dense counter from 0).  Spans name
    one client operation across every layer: the id is stamped into the
    operation's trace events and carried by its messages, so the span
    assembler ({!Sbft_analysis}) can rebuild the op's tree post-hoc.
    Allocation draws no randomness and is identical at every trace
    level, so it never perturbs replay determinism. *)

val schedule : t -> delay:int -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] at time [now t + max 1 delay].
    Events never fire at the current instant: a positive delay is
    enforced so causality is strict.  An event that would be due at
    [max_int] or later can never fire and is not queued. *)

val every : t -> period:int -> (unit -> unit) -> unit
(** [every t ~period f] attaches an observation probe (telemetry
    snapshots, progress beats, alert windows): [f] runs every
    [max 1 period] ticks, starting one period from now.  A probe's
    ticks are excluded from {!pending}, and after each run of [f] the
    next tick is queued only while [pending t > 0], so a run that
    quiesces without probes quiesces with them at most one period
    later.  Two probes never count each other as work, and a probe
    attached only at record time cannot change another's re-arm
    decisions: [f] may read the simulation but must not schedule into
    it or draw from its PRNG.  Each tick is one queued event, with the
    seq it takes as any other. *)

val schedule_now : t -> (unit -> unit) -> unit
(** Run [f] at the current time, after all work already queued for this
    instant. Used for local (zero-latency) steps such as a client
    processing a completed quorum. *)

val pending : t -> int
(** Events still queued, excluding {!every}'s probe ticks — the amount
    of real work left. *)

val step : t -> bool
(** Execute the next event. Returns [false] if the queue was empty. *)

val run : ?until:int -> ?max_events:int -> t -> unit
(** Drain the queue. Stops early, without advancing the clock, before
    the first event due after [until]; raises {!Budget_exhausted} when
    [max_events] fired with work still due.  An empty queue just
    returns. *)

exception Budget_exhausted
(** Raised by {!run} when [max_events] fired with work still pending —
    the usual sign of a livelocked protocol in a test. *)
