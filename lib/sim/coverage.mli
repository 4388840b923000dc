(** Protocol-state coverage extracted from an event trace — the signal
    that drives the schedule fuzzer's corpus retention.

    A run's coverage is the set of abstract keys its event stream
    touches:

    - one {e unigram} per event, refined by the discriminating field
      (operation phase, message kind, finish outcome, drop reason,
      violation kind), so reaching a new protocol phase or a new abort
      path mints a new key;
    - one {e bigram} per consecutive pair of unigrams in stream order —
      cheap happens-next structure that distinguishes schedules which
      visit the same states in a different interleaving;
    - {e occupancy buckets} from [Server_state] snapshots: the sting's
      residue class in the label universe crossed with bucketed history
      depth and reader load, so label-space drift after faults counts
      as new territory.

    The key space is finite by construction (all components are drawn
    from small enumerations or log-bucketed), so a fuzzing campaign's
    global coverage saturates instead of growing with trace length.
    Everything is deterministic in the event stream.

    Keys are interned to dense integer ids in a per-domain table
    ([Domain.DLS]), and a set is a bitset over those ids — so sets are
    cheap to build and merge within one domain, and safe to build
    concurrently from several domains.  Ids are not comparable across
    domains; [absorb] detects the cross-domain case and translates
    through the key strings, and [add_key]/[keys] exchange strings
    explicitly (the corpus-merge protocol). *)

type t
(** Mutable key set, plus the last unigram for bigram formation.
    Bound to the intern table of the domain that [create]d it: call
    [observe] only from that domain. *)

val create : unit -> t

val reset : t -> unit
(** Empty the set in place, keeping its backing storage — lets a fuzz
    loop reuse one scratch set per schedule instead of reallocating. *)

val observe : t -> Event.t -> unit
(** Fold one event into the set (usable directly as a trace sink's
    body). *)

val of_events : (int * Event.t) list -> t
(** Coverage of a whole recorded stream. *)

val cardinal : t -> int

val keys : t -> string list
(** Sorted, for deterministic reporting. *)

val absorb : into:t -> t -> int
(** [absorb ~into run] adds every key of [run] to [into] and returns
    how many were new — the fuzzer's "did this schedule reach anything
    we have not seen" test.  Same-domain absorbs are a bitset union;
    sets minted on different domains are translated through their key
    strings. *)

val add_key : t -> string -> bool
(** Add one key by name (interning it if needed); [true] if it was not
    already present.  The receiving end of a cross-domain merge. *)

val absorb_keys : into:t -> t -> string list
(** Like {!absorb}, but returns the newly-added keys by name (sorted) —
    what a fuzz domain ships through the corpus-merge queue. *)
