(** Bounded-capacity, lossy, non-FIFO, fair channel.

    The weak channel model under the paper's FIFO assumption: §II notes
    reliable FIFO channels "can be ensured by using a stabilization
    preserving data-link protocol built on top of bounded, non-reliable
    but fair, non-FIFO communication channels".  This module is that
    bottom layer; {!Datalink} builds the data-link on it.

    Semantics: the channel holds at most [capacity] packets as a
    multiset.  A send may be lost (probability [loss]) or rejected when
    the channel is full; otherwise the packet joins the multiset and is
    delivered after a random delay, in no particular order.  Fairness:
    a packet value sent infinitely often is delivered infinitely often.
    Transient faults may {!preload} the channel with arbitrary packets
    — the arbitrary-initial-content the data-link must stabilize
    against. *)

type 'pkt t

val create :
  Sbft_sim.Engine.t ->
  capacity:int ->
  loss:float ->
  max_delay:int ->
  handler:('pkt -> unit) ->
  'pkt t
(** One directed channel delivering to [handler]. *)

val send : 'pkt t -> 'pkt -> unit

val preload : 'pkt t -> 'pkt list -> unit
(** Install arbitrary initial contents (truncated to capacity). *)

val occupancy : 'pkt t -> int

val lost : 'pkt t -> int
