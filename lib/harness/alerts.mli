(** Streaming anomaly rules over the kv store's per-shard series.

    Evaluated one tumbling window at a time on an
    {!Sbft_sim.Engine.every} probe (read-only, no randomness —
    attaching the ruleset cannot perturb a run).  Three rules per shard per window, each judged only on
    windows with at least 8 operations:

    - [slo_burn] (critical): the window consumed the SLO error budget
      at ≥ 2× the sustainable rate ({!Slo.window_burn});
    - [abort_spike] (warning): the window's abort rate reached 3× the
      shard's own baseline over the 8 preceding windows, and at least
      20%;
    - [divergence] (warning): the shard's abort rate strayed 0.25 or
      more from the fleet median for that window.

    Firings are edge-triggered per (rule, shard): one {!Sbft_sim.Event.t}
    [Alert] into the trace and one [alerts.<rule>] counter bump when a
    rule starts firing, cleared silently when the condition passes. *)

type firing = { rule : string; shard : int; window_index : int; detail : string }

type t

val attach : slo:Slo.target -> Sbft_kv.Store.t -> t
(** [slo] sets the budget [slo_burn] measures against.  Requires a
    store created with [series_window] (raises
    [Invalid_argument] otherwise); the evaluation period is the series'
    window width. *)

val finalize : t -> now:int -> unit
(** Evaluate any windows that closed after the probe's last tick. *)

val active : t -> firing list
(** Currently-firing rules, sorted by (shard, rule). *)

val log : t -> firing list
(** Every rising edge, oldest first. *)

val fired : t -> int

val to_json : t -> Sbft_sim.Json.t

val pp : Format.formatter -> t -> unit
