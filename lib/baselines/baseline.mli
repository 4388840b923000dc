(** The three registers §V of the paper measures itself against, as
    one implementation.

    All three share the message set, the server automaton (answer
    queries, adopt a write whose unbounded integer timestamp is newer),
    the client bookkeeping and the fault hooks.  They differ only where
    the protocols do:

    - {b [Abd]}: the Attiya–Bar-Noy–Dolev crash-tolerant atomic
      register.  Majority quorums with [n ≥ 2f + 1] for [f] {e crash}
      faults; a write collects timestamps and stamps [max + 1]; a read
      writes the highest pair back before returning, which is what buys
      atomicity.  A single Byzantine server can serve it arbitrary
      values (no witness threshold).
    - {b [Kanjani]}: the Kanjani–Lee–Maguffee–Welch MWMR regular
      register ("a multi-writer multi-reader regular register using
      3f + 1 servers and unbounded timestamps").  Quorums of [n - f]
      with [n ≥ 3f + 1]; two-phase writes as ABD's; one-phase reads
      return the highest pair with at least [f + 1] witnesses, waiting
      for every server before they abort.
    - {b [Mr_safe]}: the Malkhi–Reiter wait-free safe register.  Quorums
      of [n - f] with [n ≥ 4f + 1] (masking-quorum intersection; the
      paper quotes the original deployment at 5f).  A single writer,
      client endpoint [n], stamps writes from a private counter; reads
      return the highest pair with [f + 1] witnesses and abort at the
      quorum when none has them.  Only {e safe}: a read concurrent with
      a write may return anything.

    None stabilizes.  In E8's resilience matrix each is correct inside
    its own fault model, and a single transient fault breaks it for
    good: a poisoned integer timestamp out-votes every honest write,
    and no [max + 1] can jump over it in bounded space. *)

type protocol = Abd | Kanjani | Mr_safe

type t

val create :
  ?seed:int64 ->
  ?delay:Sbft_channel.Delay.t ->
  protocol ->
  n:int ->
  f:int ->
  clients:int ->
  unit ->
  t
(** Requires [n ≥ 2f + 1] ([Abd]), [3f + 1] ([Kanjani]) or [4f + 1]
    ([Mr_safe], which also needs one client).  Endpoints: servers
    [0..n-1], clients [n..n+clients-1]. *)

val clients : t -> int list
(** Every client endpoint: the readers. *)

val writers : t -> int list
(** The client endpoints allowed to write: all of them, or [[n]] for
    [Mr_safe]. *)

val write : t -> client:int -> value:int -> ?k:(unit -> unit) -> unit -> unit
(** Raises [Invalid_argument] if [client] is not one of {!writers} or
    is busy. *)

val read : t -> client:int -> ?k:(Sbft_spec.History.read_outcome -> unit) -> unit -> unit
(** [Kanjani] and [Mr_safe] reads return [Abort] when no pair reaches
    [f + 1] witnesses — possible only under faults beyond their model
    (measured in E8). *)

val quiesce : ?max_events:int -> t -> unit

val history : t -> Sbft_labels.Unbounded.t Sbft_spec.History.t

val engine : t -> Sbft_sim.Engine.t

val crash_server : t -> int -> unit
(** The fault [Abd] is designed for. *)

val make_byzantine : t -> int -> unit
(** Equivocating takeover of one server: it answers every read with a
    forged pair.  [Kanjani] and [Mr_safe] tolerate up to [f] of them;
    [Abd] believes the forged pair's winning timestamp. *)

val corrupt_server : t -> int -> unit
(** Transient fault: randomize one server's value and (unbounded)
    timestamp. *)

val poison : t -> ids:int list -> unit
(** Correlated transient fault: plant one identical poisoned
    ⟨value, timestamp⟩ pair (maximal timestamp) on every listed
    server — the failure mode unbounded timestamps cannot recover
    from. *)

val corrupt_channels : t -> density:float -> unit
(** Initial channel corruption: {!Sbft_channel.Network.corrupt_channels}
    with garbage read replies. *)

val max_ts : t -> int
(** Largest timestamp integer any server currently stores — the
    unbounded-growth measurement for E6. *)
