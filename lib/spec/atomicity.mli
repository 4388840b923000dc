(** Atomic (linearizable) register checker.

    Used to audit the crash-only ABD baseline and to demonstrate that
    regular executions may legally fail atomicity (the new-old
    inversion).  Implements constraint propagation for read/write
    registers with {e unique written values} (Gibbons–Korach style):

    + order constraints start as the real-time precedence plus each
      read after its dictating write;
    + for a read [r] of write [w] and any other write [w']: if [w']
      precedes [r] then [w'] must precede [w]; if [w] precedes [w']
      then [r] must precede [w'];
    + rules are applied to a fixpoint of the transitive closure; a
      cycle is a linearizability violation.

    Sound and complete for unique-value register histories. O(n³) per
    closure — meant for test-sized histories, not million-op runs. *)

type report = {
  checked_ops : int;
  linearizable : bool;
  cycle : string option;  (** human-readable witness when not linearizable *)
}

val check : ?after:int -> 'ts History.t -> report
