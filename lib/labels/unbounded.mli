(** Unbounded integer timestamps, for the non-stabilizing baselines.

    The classical BFT register constructions (Malkhi–Reiter, Kanjani et
    al.) timestamp writes with a monotonically growing integer paired
    with the writer id.  This is exactly the scheme the paper's bounded
    labels replace: a single transient fault can plant a near-maximal
    integer that correct writers then chase forever, and the storage
    cost grows with history length — both effects measured in
    experiment E6/E8. *)

type t = { ts : int; writer : int }

val initial : t

val prec : t -> t -> bool
(** [prec a b] iff [compare a b < 0]. Transitive and total, unlike the
    bounded scheme. *)

val equal : t -> t -> bool

val next : writer:int -> t list -> t
(** [max + 1] over the inputs, tagged with [writer]. *)

val size_bits : t -> int
(** Bits needed to store the integer component — grows with use. *)

val random : Sbft_sim.Rng.t -> t
(** Corrupted-memory timestamp: arbitrary magnitude, possibly huge —
    the poisoned-timestamp failure mode. *)

val pp : Format.formatter -> t -> unit
