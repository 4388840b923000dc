(** MWMR regular register checker (the paper's §II-A specification).

    Audits a history against the three clauses of the multi-writer
    regular register definition ([Shao, Pierce & Welch 2003] as used by
    the paper):

    - {b Termination} — every operation by a non-crashed client got a
      response (reported, not asserted: the harness decides whether an
      incomplete op means a crash or a livelock);
    - {b Validity} — a read returns the last value written before its
      invocation or the value of a concurrent write;
    - {b Consistency} — no "new-old inversion" between reads: for any
      two reads, the writes that do not strictly follow either are
      perceived in the same order.

    "Last written" needs a write serialization when writers overlap.
    The checker takes the protocol's own order as [ts_prec] over the
    timestamps recorded on completed writes, validates that this order
    is consistent with real-time precedence (Lemma 8's claim), and then
    uses it to resolve write-write concurrency.  Reads that aborted or
    never completed are skipped — the paper's pseudo-stabilization
    only promises a {e suffix} satisfying the spec, so the harness
    typically checks the sub-history after the first completed write
    (see [after]).

    Values are assumed unique per write (the workload generator
    guarantees it); duplicate values make "which write was read"
    ambiguous and are reported as a configuration error. *)

type violation = {
  read_id : int;
  kind : [ `Stale | `Future | `Unwritten | `Inversion of int | `Order ];
  detail : string;
  ops : int list;
      (** every implicated operation id (the read itself, the other
          read of an inversion, the writes whose order it breaches) —
          what the forensic trace dump slices on *)
}
(** [`Stale]: returned a value overwritten in real time before the read
    began (a strictly later write had already completed).
    [`Future]: returned a value whose write began after the read ended.
    [`Unwritten]: returned a value never written.
    [`Inversion r1]: consistency breach — this read followed read [r1]
    in real time yet returned a write that completed before [r1]'s
    write even began, while [r1]'s write had completed before this read
    started; no serialization can satisfy both reads.
    [`Order]: Lemma 8 breach — two {e isolated} consecutive writes
    (no third write overlapping either) whose protocol timestamps are
    reversed (attached to read_id = -1).

    The checker never trusts protocol timestamps to order writes: with
    bounded labels, [≺] between non-adjacent writes is legitimately
    arbitrary (wrap-around, non-transitivity).  All staleness and
    inversion verdicts rest on real-time precedence only, which makes
    them sound: every flagged history genuinely violates MWMR
    regularity.  Serializations of mutually-concurrent writes are
    unconstrained, as the definition allows.  The classic
    regular-register "new-old inversion" between two reads racing one
    write is {e not} a violation and is deliberately accepted. *)

type report = {
  checked_reads : int;
  skipped_reads : int;  (** aborted / incomplete / before [after] *)
  violations : violation list;
}

type 'ts wrec = { wid : int; value : int; inv : int; resp : int option; wts : 'ts option }
(** A write projected out of the history — the record both the sweep
    checker and the retired scan oracle ({!Regularity_oracle}) operate
    on.  Exposed for the oracle and the benchmarks; not a stable API. *)

val write_records : 'ts History.t -> 'ts wrec list
(** All writes of the history, in operation order. *)

val order_violations :
  after:int -> ts_prec:('ts -> 'ts -> bool) -> 'ts wrec list -> violation list
(** The Lemma 8 audit in isolation: flags isolated consecutive write
    pairs (real-time ordered, no third write overlapping either) whose
    protocol timestamps are reversed.  Implemented as a sweep over the
    writes sorted by invocation time — isolated pairs are necessarily
    adjacent in that order, so one pass with a prefix-max of completion
    times replaces the retired O(W³) scan. *)

val check : ?after:int -> ts_prec:('ts -> 'ts -> bool) -> 'ts History.t -> report
(** [check ~after ~ts_prec h] audits every read invoked at or after
    time [after] (default 0). [ts_prec] compares the timestamps the
    protocol recorded on writes; it only needs to be meaningful on
    timestamps that actually occur in [h].

    Complexity: O((W + R) · (log W + log R)) on violation-free
    histories — writes and checked reads are sorted once by invocation
    time and every per-read validity/consistency question becomes a
    binary search against a completion frontier (suffix-min of write
    completions for staleness, prefix-max of writer invocations for
    inversions).  Violating histories additionally pay output cost to
    enumerate the exact offenders in the same order the retired scan
    reported them.  Reports are bit-for-bit identical to
    {!Regularity_oracle.check} (enforced by the equivalence suite);
    histories where some response precedes its invocation — nothing the
    simulator can record — are delegated to the scan outright. *)

val pp_report : Format.formatter -> report -> unit
