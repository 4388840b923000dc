(** Executable lower bound (Theorem 1): no protocol in the class
    [TM_1R] — timestamp-based, one-phase reads, majority decisions —
    implements a regular register with [n ≤ 5f].

    Two artifacts:

    {b The multiset argument}, replayed literally.  The proof drives
    any such protocol into two reads [r1] (after write [w1]) and [r2]
    (after write [w2]) that observe the {e same multiset} of
    timestamps [{ts1, ts1, ts2, ts2}] while regularity obliges them to
    return {e different} values.  {!run_decision} evaluates any
    deterministic one-phase decision rule on both observations and
    reports which read it gets wrong; every rule must fail at least
    one. {!decisions} provides the natural candidates (max, min,
    majority-then-max, …).

    {b The concrete schedule} against this repository's protocol.
    {!run_protocol} builds the register with [n = 5f] (resp.
    [n = 5f + 1]) servers, one stale-replaying Byzantine server and the
    proof's slow-channel schedule: the writer's channel to one correct
    server is stalled so it misses the write, and that server plus the
    Byzantine one land in the reader's first [n - f] replies.  At
    [n = 5f] the read returns the {e overwritten} value (a regularity
    violation, flagged by the checker); with one more server the same
    schedule is harmless — the measured tightness of the bound. *)

type decision_outcome = {
  rule : string;
  r1_returns : int;
  r1_ok : bool;  (** r1 must return ts1 *)
  r2_returns : int;
  r2_ok : bool;  (** r2 must return ts2 *)
  same_multiset : bool;  (** always true: the crux of the proof *)
}

val run_decision : string * (int list -> int) -> decision_outcome
(** Evaluate one decision rule on the proof's two observations. *)

val decisions : (string * (int list -> int)) list

type protocol_outcome = {
  n : int;
  f : int;
  written : int;  (** value of the completed write w1 *)
  read_result : string;  (** what the scheduled read returned *)
  violation : bool;  (** read returned a stale value *)
  aborted : bool;
}

val run_protocol : n:int -> f:int -> seed:int64 -> protocol_outcome
(** Run the concrete schedule. [n = 5f] exhibits the violation;
    [n = 5f + 1] must not. *)

val pp_decision : Format.formatter -> decision_outcome -> unit

val pp_protocol : Format.formatter -> protocol_outcome -> unit
