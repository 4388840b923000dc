(** Counterexample shrinking.

    A fuzz finding is rarely a good regression test as-is: hundreds of
    operations, several clients, a fault plan full of incidental
    events.  This module greedily minimizes a failing {!Scenario.t}
    while re-executing each candidate deterministically, accepting a
    change only if the run still produces the target verdict.  Passes,
    repeated to fixpoint: drop fault-plan events one at a time, halve
    event times, shrink ops-per-client down a ladder, cut clients,
    strip the ambient strategy / t0 corruption / snapshots.

    Two [Violation _] verdicts are considered the same for shrinking
    purposes even when the clause differs — which regularity clause
    trips first can legitimately change as the schedule shrinks, and
    any violation is equally a counterexample to the theorem. *)

type result_t = {
  scenario : Scenario.t;  (** the minimized scenario *)
  verdict : Scenario.verdict;  (** the preserved target verdict *)
  executions : int;  (** how many candidate runs were executed *)
  rounds : int;  (** full passes over the shrink moves *)
}

val shrink :
  ?max_executions:int ->
  ?log:(string -> unit) ->
  target:Scenario.verdict ->
  Scenario.t ->
  result_t
(** [shrink ~target s] minimizes [s] while each re-execution keeps
    producing [target] (default budget: 400 executions of at most 4M
    events each).  [s] itself is
    assumed to produce [target]; if it does not, the result is simply
    [s] unshrunk. *)

val pp_result : Format.formatter -> result_t -> unit
(** One line: the minimized scenario's parameters and shrink stats. *)
