(** Live progress heartbeats for long runs ([--progress]).

    Periodically prints one plain line — safe for TTYs and captured CI
    logs alike, no cursor tricks — of the form
    [\[progress +12.3s vt=482910 fired=1203441\] <render output>].
    The caller's [render] closure supplies the payload (ops/s,
    per-shard percentiles, fault-plan state …), so the run and kv
    subcommands each show what matters to them.

    Pacing is deliberately hybrid: the probe {e polls} on the virtual
    clock (an {!Sbft_sim.Engine.every} probe, exactly like
    {!Telemetry}), but {e decides} on the monotonic wall clock
    ({!Clock}) whether enough real seconds have passed to print.
    Virtual-tick throughput varies by orders of magnitude between
    configurations; wall seconds are what the watcher experiences.
    The probe only reads engine state and draws no randomness, so
    attaching it never changes a run's history or verdict, and it falls
    silent when no real work is left, so quiesce still terminates. *)

type t

val attach :
  ?every_s:float -> ?poll_ticks:int -> ?out:out_channel -> Sbft_sim.Engine.t -> (unit -> string) -> t
(** [attach engine render] starts the heartbeat.  [every_s] is the
    minimum wall-clock spacing between lines (default 2.0; 0 prints on
    every poll — useful in tests); [poll_ticks] the virtual-tick poll
    cadence (default 1000); [out] defaults to [stderr] so artifact
    streams on stdout stay clean. *)

val finish : t -> unit
(** Print one final line unconditionally (end-of-run summary beat). *)

val beats : t -> int
(** Lines printed so far (excluding none; including {!finish}'s). *)
