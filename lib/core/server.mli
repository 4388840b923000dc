(** Server automaton (Figures 1b, 2b, 3b plus the forwarding rule).

    A server stores the register's current ⟨value, timestamp⟩ pair, a
    sliding window of the last [history_depth] written pairs
    ([old_vals]) and the set of clients it believes are currently
    reading ([running_read]).  Behaviour on each message:

    - [GET_TS] → reply with the current timestamp;
    - [WRITE(v, ts)] → ACK iff the local timestamp precedes [ts]
      ({e in any case} adopt the pair and shift the old one into
      [old_vals] — the unconditional adoption is what lets a burst of
      writes repair transitory state, cf. Lemma 2), then forward the
      new pair to every running reader;
    - [READ(ℓ)] → record the reader, reply with value, timestamp,
      history and the echoed label;
    - [COMPLETE_READ] → forget the reader;
    - [FLUSH(ℓ)] → echo [FLUSH_ACK(ℓ)] (the FIFO fence of Figure 3).

    Servers never initiate anything: a correct server is a pure
    message-reaction machine, which is why a transient fault on a
    server is fully described by rewriting this state. *)

type t

val create :
  Config.t ->
  Sbft_labels.Sbls.system ->
  Msg.t Sbft_channel.Network.t ->
  meters:Meters.t ->
  id:int ->
  t
(** Creates the automaton and registers its handler on the network.
    Label adoptions and rejections are counted in [meters]. *)

val id : t -> int

val handle : t -> src:int -> Msg.t -> unit
(** The correct automaton's reaction to one message.  Exposed so
    Byzantine strategies can delegate to correct behaviour selectively
    (e.g. crash-at-time, correct-except-for-reads). *)

val value : t -> int

val ts : t -> Msg.ts

val old_vals : t -> Msg.hist_entry list
(** Newest first, length ≤ [history_depth]. *)

val running_readers : t -> (int * int) list
(** [(client, label)] pairs currently registered. *)

val holds : t -> value:int -> ts:Msg.ts -> bool
(** Does this server witness the pair, as current value {e or} in its
    history? (Lemma 2's "storing the value v and the label ts_v".) *)

val corrupt : t -> Sbft_sim.Rng.t -> severity:[ `Light | `Heavy ] -> unit
(** Transient fault. [`Light] randomizes value and timestamp with
    well-formed garbage; [`Heavy] also scrambles the history window and
    the running-reader set with ill-formed labels. *)
