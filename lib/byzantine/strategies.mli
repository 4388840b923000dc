(** The strategy library — one entry per adversarial behaviour the
    paper's case analyses consider, plus compositions.

    Every strategy is f-bounded by construction (it only ever controls
    the servers it is installed on); what varies is how it lies. *)

val silent : Strategy.t
(** Never answers anything — the "simulate crash in both phases" case
    of Lemma 2. *)

val mute_phase1 : Strategy.t
(** Ignores [GET_TS] but is otherwise correct — "Byzantine nodes do not
    reply in the first phase but reply in the second" (Lemma 2 case 2). *)

val mute_phase2 : Strategy.t
(** Answers [GET_TS] but ignores [WRITE] — Lemma 2 case 3. *)

val nack_all : Strategy.t
(** Replies NACK to every write (without adopting), answers the rest
    correctly — the ack-starvation attack Lemma 1's counting defeats. *)

val stale_replay : Strategy.t
(** Freezes its state at installation time and forever replies with
    that snapshot: the stale-witness attack from the Theorem 1
    schedule, trying to give an old pair a [2f+1]-th witness. *)

val equivocate : Strategy.t
(** Answers protocol-shaped but inconsistent messages: different
    readers get different values, timestamps drawn from its own random
    stream — tests that the WTsG witness threshold filters lies. *)

val all : (string * Strategy.t) list
(** Every strategy above, for sweep experiments, plus three reached only
    by name:
    - ["garbage"]: with probability 0.7 per message, responds with a
      random forged message (corrupted timestamps, wrong labels, junk
      history); otherwise behaves correctly;
    - ["inflate-ts"]: feeds writers adversarial timestamps in phase 1
      (trying to poison the [next] computation — harmless for the
      bounded scheme, fatal for unbounded integers) and handles
      everything else correctly;
    - ["mute-readers"]: participates in writes but never answers
      [READ]/[FLUSH], starving readers of replies — the liveness
      attack Lemmas 4 and 6 defend against. *)
