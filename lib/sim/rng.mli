(** Deterministic pseudo-random number generator (splitmix64).

    All randomness in the simulator flows through values of type {!t},
    created from an explicit seed, so that every experiment is exactly
    reproducible from [(seed, config)].  The generator is the splitmix64
    mixer of Steele, Lea and Flood, which passes BigCrush and is cheap
    enough to sit on the hot path of the event loop. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] returns a fresh generator. Two generators created with
    the same seed produce identical streams. *)

val copy : t -> t
(** [copy t] is an independent generator starting from [t]'s current
    state. *)

val split : t -> t
(** [split t] derives a new, statistically independent generator from
    [t], advancing [t]. Use to give subsystems their own streams so the
    draw order of one cannot perturb another. *)

val int64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be
    positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] (inclusive). *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val hash_float : int64 -> int -> float
(** [hash_float key i] is uniform in [\[0, 1)] and a pure function of
    [(key, i)]: no generator state, so the same pair gives the same
    value however many draws came before.  What a decision keyed by an
    id (a head sampler's per-span choice) draws. *)

val bool : t -> bool
(** Fair coin. *)

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p]. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val pick_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample : t -> int -> 'a list -> 'a list
(** [sample t m xs] is [m] elements drawn without replacement from
    [xs] (all of [xs] if [m >= List.length xs]). *)
