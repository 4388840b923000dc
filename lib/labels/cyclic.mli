(** A classic {e non-stabilizing} bounded timestamp scheme — the straw
    man of §IV-A.

    Sequence numbers cycle over [{0 .. m-1}] and compare through a
    half-window: [a ≺ b] iff [0 < (b - a) mod m < m/2] — TCP sequence
    numbers, essentially.  In a clean execution, where at most [k]
    consecutive values are ever live simultaneously (with [k < m/2]),
    this orders everything correctly and [next = max + 1 mod m] works.

    The paper's point (citing Israeli–Li): such schemes have {e initial
    configurations from which no new label dominates} — plant labels
    spread around the whole ring (as a transient fault will) and every
    candidate is "before" some live label; [next] cannot jump over the
    wrap-around.  {!next} here returns the best candidate anyway and
    {!dominates_all} reports whether domination actually held — tests
    and experiment E6 measure how often it fails from corrupted
    configurations (vs. the k-SBLS's always). *)

type t = private int
(** A point on the ring. *)

type system = private { m : int }

val system : m:int -> system
(** Ring size; [m >= 4]. *)

val of_int : system -> int -> t
(** Clamp/wrap an arbitrary (corrupted) integer onto the ring. *)

val initial : t

val prec : system -> t -> t -> bool
(** Half-window order: antisymmetric, irreflexive, {e not} total (the
    antipode is incomparable), cyclic (hence non-transitive globally). *)

val next : system -> t list -> t
(** [max + 1] along the ring from the candidate that dominates the
    most inputs — the best a cyclic scheme can do. *)

val dominates_all : system -> t -> t list -> bool
(** Did a candidate actually dominate every input? The property that
    {e cannot} be guaranteed here but is guaranteed by {!Sbls.next}. *)

val stuck : system -> t list -> bool
(** No label on the whole ring dominates every input — the
    impossible-configuration predicate.  Any input set spanning both
    half-windows is stuck; clean executions never produce one, a
    transient fault trivially does. *)

val random : system -> Sbft_sim.Rng.t -> t

val size_bits : system -> int
