(** Typed event trace: bounded in-memory ring plus pluggable sinks,
    with a verbosity {e level} chosen per run.

    When tracing, protocol layers emit one {!Event.t} per interesting
    moment (message lifecycle, operation phase, fault injection).  The
    ring retains only the most recent [capacity] events, so tracing
    long runs stays O(capacity); sinks additionally see events as they
    happen, which is how [--trace-out] streams an unbounded JSONL file
    while the ring stays small for forensics.

    Levels scale the observability cost with the run:

    - {!Off} — nothing is recorded; [emit] is one branch, and hot
      paths that guard event construction behind {!enabled} never
      allocate the payload.
    - {!Sampled} — the ring sees {e every} event (so a replayable
      forensic window always exists) but sinks only see a
      deterministic pseudo-random subset: million-op runs keep
      bounded JSONL artifacts.  The sampler is seeded independently of
      the engine PRNG, so the simulation itself is bit-identical at
      every level and the sampled stream is a subsequence of the full
      one for the same seeds.
    - {!On} — ring and sinks see everything (the default for
      recorded, replayable runs).
    - {!Forensic} — additionally records free-form {!log}/{!logf}
      narration ({!Event.Note}), the chattiest tier. *)

type level = Off | Sampled | On | Forensic

val level_to_string : level -> string

val levels : level list
(** In increasing verbosity order. *)

type t

type sink = time:int -> Event.t -> unit
(** Sinks run synchronously on each emit (non-[Off] traces only; the
    sampled subset at {!Sampled}) and must not emit events themselves. *)

val create : ?capacity:int -> ?sample:float -> level:level -> unit -> t
(** [capacity] defaults to 4096 ring entries.  [sample] is the
    per-event probability a sink sees it at {!Sampled} (default 0.01);
    the private sampler is seeded with the constant [0x5eed]. *)

val level : t -> level

val enabled : t -> bool
(** [level t <> Off].  Callers on hot paths should check this first to
    avoid building the event at all. *)

val forensic : t -> bool
(** [level t = Forensic]. *)

val add_sink : t -> sink -> unit

val emit : t -> time:int -> Event.t -> unit
(** Record a typed event (no-op when [Off]; ring-only for unsampled
    events at [Sampled]). *)

val log : t -> time:int -> string -> unit
(** Record a free-form {!Event.Note} — {!Forensic} level only. *)

val logf : t -> time:int -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Formatted {!log}; the message is only built at {!Forensic}. *)

val entries : t -> (int * Event.t) list
(** Retained events, oldest first. *)

val window : t -> from_time:int -> until:int -> (int * Event.t) list
(** Retained events with [from_time <= t <= until], oldest first. *)

val dump : t -> Format.formatter -> unit
(** Print all retained events, one per line, as ["[%d] %a"]. *)

val jsonl_sink : out_channel -> sink
(** A sink that writes each event as one JSON line (see
    {!Event.to_json}).  The caller owns the channel: flush/close it
    after the run. *)
