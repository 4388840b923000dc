(** Single-writer multi-reader front-end (§IV-B of the paper).

    The paper first proves the SWMR register (Theorem 2) and then
    obtains MWMR by tagging timestamps with writer ids (§IV-D).  The
    implementation is shared; this module is the SWMR discipline made
    explicit: one designated writer endpoint, everyone else reads.
    Using it (instead of raw {!System}) buys the stronger single-writer
    properties:

    - writes never retry (Lemma 1's counting is exact);
    - consecutive writes are always label-ordered (Lemma 8's trivial
      case);
    - the register is regular with plain Theorem 2 force, no
      concurrent-writer caveats.

    Attempting to write from a non-designated endpoint is rejected. *)

type t

val create :
  ?seed:int64 ->
  ?delay:Sbft_channel.Delay.t ->
  ?trace_level:Sbft_sim.Trace.level ->
  ?transport:Sbft_channel.Network.transport ->
  Config.t ->
  t
(** The designated writer is the first client endpoint, [n]. *)

val system : t -> System.t
(** The underlying deployment (for fault injection and inspection). *)

val writer : t -> int
(** The designated writer's endpoint id. *)

val readers : t -> int list
(** All other client endpoints. *)

val write : t -> value:int -> ?k:(unit -> unit) -> unit -> unit
(** Issue a write from the designated writer. *)

val read : t -> client:int -> ?k:(Client.read_outcome -> unit) -> unit -> unit
(** Issue a read from any client endpoint (the writer may read too).
    Raises [Invalid_argument] for non-client ids. *)

val quiesce : ?max_events:int -> t -> unit

val history : t -> Msg.ts Sbft_spec.History.t
