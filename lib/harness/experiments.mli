(** The experiment suite — one table per reproducible artifact of the
    paper (see DESIGN.md's per-experiment index).

    The paper is theory-only, so "reproducing" it means turning each
    theorem, lemma and design claim into a measurement:

    - E1: Theorem 1's lower-bound schedule, as executions;
    - E2: Lemmas 1 & 6 (termination) as latency/message costs;
    - E3: Lemma 2 (write coverage ≥ 3f+1) as a measured minimum;
    - E4: Lemma 7 / Theorems 2–3 (regularity) under every adversary;
    - E5: pseudo-stabilization — convergence after corruption;
    - E6: bounded labels vs unbounded timestamps;
    - E7: Lemma 8 (MWMR write order);
    - E8: §V related-work comparison as a resilience matrix;
    - E9: tightness of n > 5f;
    - E10: Assumption 2 (write quiescence) — why it is needed;
    - E11: the data-link substrate of the §II channel assumption;
    - E13: Byzantine readers (§VI remark);
    - E14: ablations of the forwarding rule and read-label pool;
    - E15: asynchrony sensitivity;
    - E16: schedule-space exploration;
    - E17: the register over the full channel stack;
    - E18: the sharded KV store built on the register;
    - E19: fault storms with healing, monitored live;
    - E20: network partition episodes;
    - E21–E24: the checker at scale, tracing overhead, time-to-stabilize
      and the open-loop saturation knee.

    Each is a {!Table.t} thunk reached through {!by_id}, which
    [sbftreg experiment ID|all] renders.  Every table is deterministic (fixed seed set) except the
    wall-clock timing columns of E21 and E22. *)

val stabilization_telemetry : unit -> Sbft_sim.Json.t
(** E5's "everything" scenario re-run with {!Telemetry} attached: the
    windowed abort-rate and label-occupancy curves behind the table's
    scalars (seed 11, snapshots every 25 ticks). *)

val domination_failures : k:int -> seed:int64 -> trials:int -> int
(** Of [trials] random sets of 1 to [k] corrupted labels, how many
    [Sbls.next] fails to dominate — E6's check, also [sbftreg labels]'s. *)

type storm = {
  plan : Sbft_byz.Fault_plan.t;
  report : Sbft_core.Invariants.report;
  ok : bool;  (** {!Sbft_core.Invariants.ok} of [report] *)
}

val storm_session :
  n:int -> f:int -> seed:int64 -> waves:int -> every:int -> (storm, string) result
(** One E19 row's per-seed run, also [sbftreg storm]'s: three clients
    issue 40 operations each (40% writes, 3–20 ticks apart) through a
    {!Sbft_byz.Fault_plan.storm} of [waves] waves [every] ticks apart,
    all checked live by the invariant monitor.  [Error] names the flag
    of a bad parameter (n ≤ 5f, f < 0, waves < 0, every < 1). *)

val pp_storm : Format.formatter -> storm -> unit
(** The monitor's report, then ["verdict: OK"] or ["verdict: BROKEN"]. *)

val by_id : string -> (unit -> Table.t) option
(** Look up by id, case-insensitive ("e4" or "E4"). *)

val ids : string list
