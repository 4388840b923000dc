(** The within-run ratio gate behind [sbftreg bench].

    Wall time is gated here only as a ratio of two arms timed in the
    same run, so a slower or busier host moves both arms alike.  Three
    rows:

    - {b series on vs off}: a Zipfian kv run with the per-shard series
      and online detector attached vs bare, as percent slower per fired
      event; capped at 5%;
    - {b open vs closed loop}: {!Loadgen}'s open loop vs
      {!Workload.run_kv} completing the same operations on an identical
      store, as percent slower per fired event net of each driver's own
      pacing thunks (the two pacings provoke slightly different protocol
      traffic, so a raw ops/s ratio would gate schedule shape, not
      machinery); capped at 5%;
    - {b sweep vs scan}: {!Sbft_spec.Regularity} vs
      {!Sbft_spec.Regularity_oracle} on a 1k-op {!synthetic_history}, as
      a speedup with a floor.

    Each row takes one sample per round over seven rounds.  Within a
    round the two arms run one after the other, one run at a time, and
    the arm that goes first alternates from round to round, so host
    drift lands on both.  A row is over budget when three quarters of
    its rounds are: an overhead whose first quartile is above its cap,
    a speedup whose third quartile is below its floor.  Absolute speed
    and the exact per-op counts are bench/suite's ([make count-gate]). *)

val synthetic_history :
  seed:int64 -> n_ops:int -> reads_per_write:int -> int Sbft_spec.History.t
(** Valid sequential-writer audit history (no violations, monotone
    timestamps): the checker's steady-state shape.  Also used by E21. *)

type budget =
  | Cap of float  (** an overhead in percent, over budget above it *)
  | Floor of float  (** a speedup, over budget below it *)

type row = { name : string; budget : budget; samples : float array  (** one per round *) }

val run : unit -> row list
(** Measure the three rows (about 7 s of wall time). *)

val over_budget : row -> bool
(** The first quartile above a [Cap], or the third quartile below a
    [Floor] ({!Stats.percentile} 25 and 75 of the samples). *)

val pp_row : Format.formatter -> row -> unit
(** Name, median [\[q1, q3\]], the budget and the verdict, on one line. *)
