(** Typed event trace: a verbosity {e level} chosen per run, a private
    sampler, and pluggable sinks.

    When tracing, protocol layers emit one {!Event.t} per interesting
    moment (message lifecycle, operation phase, fault injection) to
    every sink as it happens: that is how [--trace-out] streams a JSONL
    file, how the fuzzer folds coverage and how the profiler counts
    event kinds.  The trace keeps nothing itself.  An event is built
    only when some sink will receive it: emitting layers ask {!admits}
    first and construct the payload only on [true].

    Levels scale the observability cost with the run:

    - {!Off} — nothing is emitted; {!admits} is one branch.
    - {!Sampled} — head sampling, decided once per span: an operation's
      span is sampled or not as a pure function of its span id and the
      sample seed, and a sampled span is recorded whole (client events,
      network legs, server adoptions, the kv store's shard tag) while
      an unsampled one never builds an event.  Events outside any span
      (injected garbage, faults, snapshots, alerts, violations) take a
      per-event draw from the private sampler, made before the event is
      built.  Neither decision draws from the engine PRNG, so the
      simulation is bit-identical at every level, and the sampled
      stream is an in-order subsequence of the full one.
    - {!On} — sinks see every event (the default for recorded,
      replayable runs).
    - {!Forensic} — additionally records free-form {!log}/{!logf}
      narration ({!Event.Note}), the chattiest tier. *)

type level = Off | Sampled | On | Forensic

val level_to_string : level -> string

val levels : level list
(** In increasing verbosity order. *)

type t

type sink = time:int -> Event.t -> unit
(** Sinks run synchronously on each emit and must not emit events
    themselves. *)

val create : ?sample:float -> level:level -> unit -> t
(** [sample] is the share of spans, and of span-less events, that
    {!Sampled} keeps (default 0.01). *)

val add_sink : t -> sink -> unit

val admits : t -> span:int -> bool
(** Whether the sinks receive an event of [span] ({!Event.no_span} for
    an event outside any span): [false] at {!Off} or with no sink,
    [true] at {!On} and {!Forensic}.  At {!Sampled}, a span's answer is
    the same on every call; a span-less query draws the per-event
    sampler, so ask exactly once per event, right before building it,
    and {!emit} it on [true]. *)

val emit : t -> time:int -> Event.t -> unit
(** Hand an event {!admits} accepted to every sink (a no-op at {!Off}). *)

val log : t -> time:int -> string -> unit
(** Record a free-form {!Event.Note} — {!Forensic} level only. *)

val logf : t -> time:int -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Formatted {!log}; the message is only built at {!Forensic} with a
    sink attached. *)

val jsonl_sink : out_channel -> sink
(** A sink that writes each event as one JSON line (see
    {!Event.to_json}).  The caller owns the channel: flush/close it
    after the run. *)
