(** Convergence telemetry: periodic per-server state snapshots plus
    windowed time series derived from the run's history.

    The paper's stabilization claim is a {e curve}, not a number —
    after a transient fault the abort rate decays and the label space
    drains back towards a single live sting.  {!attach} schedules a
    recurring probe on the system's engine that, every
    [snapshot_every] ticks, emits one {!Sbft_sim.Event.Server_state}
    record per server into the trace and accumulates the label-space
    occupancy (distinct stings in use over the universe size
    [m = k² + 1]).  The probe is an {!Sbft_sim.Engine.every} probe, so
    [quiesce] terminates exactly as it would without telemetry, and it
    draws no randomness, so attaching it never perturbs replay
    determinism.

    After the run, {!to_json} folds the history into per-window
    series — reads, writes, aborts, abort rate, stale reads (supplied
    by the regularity checker) — alongside the occupancy curve and a
    scalar [summary] block sized for [sbftreg diff]. *)

type snapshot = {
  time : int;
  distinct_labels : int;  (** distinct stings among current server timestamps *)
  occupancy : float;  (** [distinct_labels / m] *)
}

type t

val attach : ?snapshot_every:int -> ?window:int -> Sbft_core.System.t -> t
(** Start the periodic probe. [snapshot_every] defaults to 50 ticks;
    [0] (or negative) disables snapshotting entirely — {!to_json} then
    still produces the history-derived series. [window] is the series
    bucket width and defaults to [snapshot_every] (or 50 when
    disabled). *)

val snapshots : t -> snapshot list
(** Oldest first. *)

val to_json :
  t -> history:'ts Sbft_spec.History.t -> ?stale_reads:int list -> unit -> Sbft_sim.Json.t
(** The artifact's ["telemetry"] member. [stale_reads] lists the read
    operation ids the regularity checker implicated; they are bucketed
    by response time into the [stale_reads] series. *)
