(** Message-flow capture and Figure-4-style projections.

    The paper's Figure 4 shows "the projection of read() operation
    events at client c_i" — the client's lifeline with its sends and
    deliveries in happened-before order, which the Lemma 5 FIFO-fence
    argument reasons over.  This module reproduces that artifact from a
    live run: attach a wiretap to the network, run operations, then
    render any endpoint's projection as text.

    Works for any message type (the describer stringifies); {!figure4},
    the session behind the [trace] CLI subcommand, and the diagram tests
    use it with the core protocol. *)

type entry = {
  time : int;
  event : [ `Send | `Deliver ];
  src : int;
  dst : int;
  label : string;
}

type t

val attach : 'msg Sbft_channel.Network.t -> describe:('msg -> string) -> t
(** Start recording every send and delivery. Replaces any previous
    observer on the network. *)

val entries : t -> entry list
(** Everything captured, in order. *)

val projection :
  ?from_time:int -> ?until:int -> endpoint:int -> name:(int -> string) -> t -> string
(** The Figure-4 artifact: endpoint's lifeline, one line per event —
    [──MSG──▶ peer] for sends (consecutive same-instant broadcasts of
    one message are folded into a peer range) and [◀──MSG── peer] for
    deliveries.  [name] renders endpoint ids (e.g. ["s0"], ["c6"]). *)

type figure4 = {
  outcome : Sbft_spec.History.read_outcome;  (** what the read returned *)
  write_projection : string;  (** the writer's lifeline until the read starts *)
  read_projection : string;  (** the reader's lifeline from the read's start *)
  counters : (string * int) list;  (** the engine's counters, sorted by name *)
}

val figure4 : seed:int64 -> figure4
(** One write/read cycle of the core protocol (n = 6, f = 1, two
    clients), traced at [On] with a capture attached: client 6 writes
    7, then client 7 reads.  The two projections are the paper's
    Figure 4 for each operation; endpoints are named ["s0"]..["s5"],
    ["c6"], ["c7"]. *)
