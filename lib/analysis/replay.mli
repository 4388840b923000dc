(** Divergence detection between a recorded event stream and its
    re-execution.

    Determinism is the simulator's core contract: the same
    {!Run_header} must regenerate the identical event stream.  This
    module is the pure half of [sbftreg replay] — comparing the two
    streams and pinpointing the first index where they part ways.  The
    impure half (re-executing the header's scenario) lives in
    [Sbft_harness.Scenario], so record and replay share one code
    path. *)

type divergence = {
  index : int;  (** 0-based position of the first mismatch *)
  expected : (int * Sbft_sim.Event.t) option;  (** [None]: recorded stream ended early *)
  got : (int * Sbft_sim.Event.t) option;  (** [None]: replayed stream ended early *)
}

type verdict = {
  matched : int;  (** events identical before the divergence (or all) *)
  divergence : divergence option;  (** [None] = streams identical *)
}

val compare_for_level :
  trace_level:string ->
  expected:(int * Sbft_sim.Event.t) list ->
  got:(int * Sbft_sim.Event.t) list ->
  verdict
(** Dispatch on {!Run_header.t}[.trace_level].  ["sampled"] checks
    containment in order: every recorded event appears in the replayed
    stream, in recorded order, since a sampled artifact is a
    deterministic subsequence of the full stream and equality would
    false-positive on every unsampled event ([divergence.got = None]
    means the next recorded event was never found).  Every other level
    compares the streams exactly. *)

val fingerprint_mismatch : header:Run_header.t -> fingerprint:string -> bool
(** True when both fingerprints are known and differ — the replayed
    binary is not the recorder, so a divergence may be a code change
    rather than nondeterminism. *)

val pp_verdict : Format.formatter -> verdict -> unit
