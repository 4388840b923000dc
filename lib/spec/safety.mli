(** Safe register checker (Lamport's weakest semantics).

    A safe register only constrains reads that are {e not} concurrent
    with any write: they must return the last value written.  Reads
    overlapping a write may return anything.  Used to audit the
    Malkhi–Reiter baseline, which promises exactly this. *)

type violation = { read_id : int; detail : string }

type report = { checked_reads : int; unconstrained_reads : int; violations : violation list }

val check : ?after:int -> ts_prec:('ts -> 'ts -> bool) -> 'ts History.t -> report
(** [ts_prec] resolves "last" among writes that are mutually
    concurrent, as in {!Regularity.check}. *)
