(** Post-mortem for regularity violations: the implicated operations,
    their happened-before relation, and the trace window they span.

    When the checker flags a history, a counter saying "1 violation"
    is where debugging {e starts}; what one actually needs is the
    causally-ordered event log of exactly the operations involved.
    Violations carry the implicated operation ids
    ({!Sbft_spec.Regularity.violation}[.ops]), operation events carry
    the same ids ({!Sbft_sim.Event}), so the dump slices [events] — the
    run's retained event log, oldest first (see
    {!Scenario.forensic_events}) — to the window [\[min inv, max resp\]]
    of those operations and prints, per violation:

    - each implicated operation with its client and real-time interval;
    - every happened-before edge between them (A → B iff A responded
      before B was invoked, the paper's precedence), concurrency made
      explicit;
    - the events in the window, filtered to the implicated spans plus
      every non-operation event (messages, faults) that fired inside
      it;
    - the violating read's causal cone through the window, rendered as
      an ASCII space-time diagram ({!Sbft_analysis.Causality}) —
      message-level happened-before, not just operation-level;
    - the critical path of each implicated operation
      ({!Sbft_analysis.Spans}), so the report also answers {e where the
      time went} — was the stale read racing a still-uncommitted write,
      or stalled on a slow quorum?

    [name] renders endpoint ids in the diagram (default [n<i>]). *)

val dump_violation :
  ?name:(int -> string) ->
  Format.formatter ->
  events:(int * Sbft_sim.Event.t) list ->
  history:'ts Sbft_spec.History.t ->
  Sbft_spec.Regularity.violation ->
  unit

val dump :
  ?name:(int -> string) ->
  Format.formatter ->
  events:(int * Sbft_sim.Event.t) list ->
  history:'ts Sbft_spec.History.t ->
  Sbft_spec.Regularity.violation list ->
  unit

val dump_string :
  ?name:(int -> string) ->
  events:(int * Sbft_sim.Event.t) list ->
  history:'ts Sbft_spec.History.t ->
  Sbft_spec.Regularity.violation list ->
  string
