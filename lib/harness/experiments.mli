(** The experiment suite — one entry per reproducible artifact of the
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
    - E20: network partition episodes.

    Every function is deterministic (fixed seed set) and returns a
    {!Table.t}; [dune exec bench/main.exe] renders them all. *)

val e1_lower_bound : unit -> Table.t

val e2_termination : unit -> Table.t

val e3_write_coverage : unit -> Table.t

val e4_regularity : unit -> Table.t

val e5_stabilization : unit -> Table.t

val stabilization_telemetry : unit -> Sbft_sim.Json.t
(** E5's "everything" scenario re-run with {!Telemetry} attached: the
    windowed abort-rate and label-occupancy curves behind the table's
    scalars (seed 11, snapshots every 25 ticks). *)

val domination_failures : k:int -> seed:int64 -> trials:int -> int
(** Of [trials] random sets of 1 to [k] corrupted labels, how many
    [Sbls.next] fails to dominate — E6's check, also [sbftreg labels]'s. *)

val e6_bounded_labels : unit -> Table.t

val e7_mwmr_order : unit -> Table.t

val e8_baselines : unit -> Table.t

val e9_tightness : unit -> Table.t

val e10_quiescence : unit -> Table.t

val e11_datalink : unit -> Table.t

val e13_byzantine_clients : unit -> Table.t
(** The §VI remark: Byzantine readers cannot break correct clients. *)

val e14_ablations : unit -> Table.t
(** Design-choice ablations: the forwarding rule, the read-label pool. *)

val e15_asynchrony : unit -> Table.t
(** Delay-model sensitivity: latency moves, correctness does not. *)

val e16_exploration : unit -> Table.t
(** Schedule-space sweep via {!Explorer}: counterexample counts. *)

val e17_full_stack : unit -> Table.t
(** The register over the whole channel stack: data-links over lossy
    non-FIFO channels instead of the FIFO axiom. *)

val e18_kv_store : unit -> Table.t
(** The sharded KV store: scaling in shards, fault blast radius. *)

val e19_fault_storm : unit -> Table.t
(** Random fault storms with healing, checked live by the invariant
    monitor — the §VI transient/Byzantine unification. *)

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

val e20_partition : unit -> Table.t
(** Partition episodes: stalls and recovery, never violations. *)

val e21_scale : unit -> Table.t
(** Checker at scale: the sweep vs the retired list-scan oracle on
    growing synthetic audit histories and a 10k-op n=31/f=6 run, with
    bit-for-bit report equality asserted on every row. *)

val e22_observability : unit -> Table.t
(** Observability overhead: one 10^5-op workload against a 16-shard
    store with the trace dial at every level, wall-clock timed.  Fired
    thunks are identical across rows (the dial never perturbs the
    simulation); only wall time and sink volume move. *)

val e23_time_to_stabilize : unit -> Table.t
(** Time-to-stabilize vs fault density: transient heavy corruption of
    1/4/8 of a 16-shard Zipfian store's shards, measured live by the
    {!Stabilization} detector (per-shard and fleet) — blast radius in
    recovery time rather than in space. *)

val e24_saturation_knee : unit -> Table.t
(** The open-loop generator's saturation knee: constant-rate arrivals
    swept past an 8-shard store's capacity with 2 shards faulted
    mid-run — offered vs completed vs rejected, peak queue depth and
    queue-wait p99 per rate.  The 10^6-op/64-shard flagship run is the
    EXPERIMENTS.md walkthrough (one [sbftreg kv --arrival] call). *)

val all : unit -> Table.t list

val by_id : string -> (unit -> Table.t) option
(** Look up by id, case-insensitive ("e4" or "E4"). *)

val ids : string list
