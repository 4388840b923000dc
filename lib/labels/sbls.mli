(** k-stabilizing bounded labeling system (Definition 2 of the paper).

    Implements the construction of Alon, Attiya, Dolev, Dubois,
    Potop-Butucaru and Tixeuil ("Sharing memory in a self-stabilizing
    manner", DISC 2010), which the paper uses to timestamp write
    operations: a triplet [(L, ≺, next)] where [L] is finite, [≺] is
    antisymmetric (but deliberately {e not} transitive and not total),
    and for every subset [L'] of at most [k] labels,
    [∀ ℓ ∈ L'. ℓ ≺ next L'].

    Construction: fix a universe [X = {0 .. m-1}] with [m = k² + 1].  A
    label is a pair [(s, A)] of a {e sting} [s ∈ X] and a set of
    {e antistings} [A ⊆ X] with [|A| = k].  Then

    - [(s₁, A₁) ≺ (s₂, A₂)] iff [s₁ ∈ A₂ ∧ s₂ ∉ A₁];
    - [next \{(sᵢ, Aᵢ)\}] returns [(s, A)] where [s] avoids every [Aᵢ]
      (possible because [|∪ Aᵢ| ≤ k² < m]) and [A ⊇ \{sᵢ\}].

    The point of the whole exercise: unlike classic bounded timestamp
    systems, [next] is total — it produces a dominating label from
    {e any} input set of at most [k] labels, including labels planted
    by a transient fault, which is exactly what a stabilizing register
    needs.  Labels occupy O(k log k) bits, independent of history
    length.

    Values of type {!t} are not guaranteed well-formed (a corrupted
    process may hold anything); every function below is total on
    arbitrary labels, and the domination guarantee of {!next} holds for
    any input list of at most [k] labels whose antisting sets have at
    most [k] elements each. *)

type system = private { k : int; m : int }
(** Parameters: [k] = maximum set size [next] dominates; [m = k² + 1]
    = universe size. *)

type t = { sting : int; anti : int array }
(** A label. [anti] is sorted ascending for canonical representation;
    corrupted labels may break every invariant, including sortedness
    and cardinality. The representation is exposed so fault injectors
    can build arbitrary (including ill-formed) labels. *)

val system : k:int -> system
(** [system ~k] fixes the label universe. Raises [Invalid_argument] if
    [k < 2]. *)

val initial : system -> t
(** A fixed well-formed label, the conventional clean-start value. *)

val prec : t -> t -> bool
(** [prec l1 l2] is [l1 ≺ l2]. Total function, antisymmetric and
    irreflexive on all inputs; transitivity is intentionally absent. *)

val equal : t -> t -> bool

val compare : t -> t -> int
(** Structural order for use in maps/sets; unrelated to [≺]. *)

val next : system -> t list -> t
(** [next sys ls] returns a label dominating every label of [ls]
    whenever [List.length ls <= k] and each antisting set has at most
    [k] entries.

    The sting is the smallest universe element no input antisting set
    holds.  The antistings are the first [k] distinct input stings, in
    list order, padded with the smallest elements that are neither one
    of them nor the sting, and sorted.  So the result depends only on
    the {e set} of inputs when they have at most [k] distinct stings.

    On corrupted input the result still has an in-range sting and [k]
    distinct sorted antistings, but it need not be {!valid}: input
    stings are copied as they are, out-of-range ones included.  When
    the input antisting sets cover the whole universe, which takes
    over-long or corrupted input, the sting is 0, and the result does
    not dominate the inputs whose antisting sets hold 0. *)

val valid : system -> t -> bool
(** Well-formedness: sting in range, exactly [k] sorted distinct
    in-range antistings. *)

val canonicalize : system -> t -> t
(** Rewrite an arbitrary label into a valid one, deterministically:
    out-of-range entries are dropped, duplicates removed, the set
    padded or truncated to [k]. Identity on valid labels. *)

val random : system -> Sbft_sim.Rng.t -> t
(** Uniformly random {e valid} label — models a corrupted-but-typable
    memory cell. *)

val random_garbage : system -> Sbft_sim.Rng.t -> t
(** Arbitrary possibly ill-formed label: out-of-range sting, wrong
    cardinality, unsorted antistings. Models raw memory corruption. *)

val size_bits : system -> int
(** Storage cost of one label in bits: [⌈log₂ m⌉ · (k + 1)]. *)

val pp : Format.formatter -> t -> unit
