(** Runtime invariant monitor — the paper's lemmas checked live.

    Wrap a {!System} and issue operations through the monitor instead;
    it verifies, {e at the moment each guarantee is promised}:

    - {b Lemma 2} on every write completion: at least [3f + 1] servers
      hold the written ⟨value, timestamp⟩ pair right then (history
      windows included);
    - {b Theorem 2's abort discipline}: once a write has completed
      after the last known corruption, reads must not abort;
    - write retries (the MWMR deviation) are counted so single-writer
      deployments can assert zero.

    The monitor must be told about mid-run transient faults
    ({!notify_corruption}) because pseudo-stabilization restarts its
    clock there; fault helpers in experiments typically call it
    alongside the injection.  Post-run, {!report} summarizes and
    {!check} folds in a full regularity audit of the history. *)

type t

type report = {
  writes_checked : int;
  min_coverage : int;  (** worst write-completion coverage seen; [max_int] if none *)
  coverage_failures : int;  (** completions with fewer than 3f+1 holders *)
  reads_checked : int;
  post_stab_aborts : int;  (** aborts after stabilization — must be 0 *)
  retries : int;  (** write retry rounds (0 for a single writer) *)
  regularity_violations : int;
}

val create : System.t -> t

val write : t -> client:int -> value:int -> ?k:(unit -> unit) -> unit -> unit
(** As {!System.write}, plus the Lemma 2 check at completion. *)

val read : t -> client:int -> ?k:(Client.read_outcome -> unit) -> unit -> unit
(** As {!System.read}, plus the abort-discipline check at completion. *)

val notify_corruption : t -> unit
(** A transient fault was injected: the stabilization clock restarts;
    aborts are tolerated again until the next monitored write
    completes. *)

val report : t -> report
(** Summary of everything monitored so far (cheap; no audit). *)

val check : t -> report
(** {!report} plus a regularity audit of the system's history from the
    last stabilization point. *)

val ok : report -> bool
(** No coverage failures, no post-stabilization aborts, no regularity
    violations. *)

val pp_report : Format.formatter -> report -> unit
