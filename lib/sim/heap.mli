(** Binary min-heap keyed by [(time, seq)] pairs.

    The event queue of the discrete-event engine.  Ties on [time] are
    broken by the monotonically increasing sequence number [seq], which
    makes event ordering total and the whole simulation deterministic.

    Keys and payloads are stored in parallel arrays: sift comparisons
    are unboxed [int] reads, and {!take} releases the payload slot it
    vacates, so a delivered message or closure becomes collectable the
    moment it leaves the queue.  A consumer drains the heap the way the
    engine does: read {!min_time} (and {!min_seq} on a time tie), then
    {!take}. *)

type 'a t
(** Heap holding payloads of type ['a]. *)

val create : unit -> 'a t

val size : 'a t -> int

val push : 'a t -> time:int -> seq:int -> 'a -> unit
(** Insert a payload with the given key. *)

val no_event : int
(** Sentinel returned by [min_time] on an empty heap ([max_int]). *)

val min_time : 'a t -> int
(** Time of the minimum element, or [no_event] if empty — the
    allocation-free peek for hot loops. *)

val min_seq : 'a t -> int
(** Sequence number of the minimum element.  Meaningful only when
    [min_time] is not [no_event]: the engine reads it to break a time
    tie against its timing wheel. *)

val take : 'a t -> 'a
(** Remove the minimum element, release its slot and return its
    payload without boxing the key.  Raises [Invalid_argument] on an
    empty heap: pair it with [min_time]. *)
