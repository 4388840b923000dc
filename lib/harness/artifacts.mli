(** Machine-readable run artifacts: the [--metrics-out] snapshot of
    both [sbftreg run] and [sbftreg kv].

    One JSON object per run, schema ["sbft-metrics/2"]; members other than
    [schema], [counters], [histograms] and [per_node] appear only when
    the command produced them:
    {v
    { "schema":        "sbft-metrics/2",
      "run":           { ...caller-supplied parameters... },
      "counters":      { "net.sent": 1234, ... },
      "histograms":    { "op.write.total_ticks":
                           { "count", "sum", "min", "max", "mean",
                             "p50", "p95", "p99", "bounds", "counts" }, ... },
      "per_node":      [ { "id", "sent", "delivered" }, ... ],
      "regularity":    { "checked", "violations" },
      "stabilization": { "window", "k", "after", "stabilized_shards",
                         "fleet":  { detector verdict },
                         "shards": [ { "shard", detector verdict }, ... ] },
      "alerts":        { "fired", "active": [ ... ], "log": [ ... ] },
      "loadgen":       { "offered", "accepted", "rejected", ... },
      "series":        { "shards": [ { "shard", "flow", "lat", "queue" } ],
                         "fleet": [ merged windows ] },
      "telemetry":     { "snapshots", "series", "summary" },
      "shards":        { "target", "ok", "shards": [ per-shard SLO rows ] },
      "profile":       { "wall_s", "phases", "top_events", "events_total" } }
    v}
    A detector verdict is [{window, k, after, dirty_windows,
    dirty_observations, stabilized_at, time_to_stabilize}]
    ({!Sbft_sim.Series.Detector.to_json}); [run] artifacts carry a
    one-shard bank, [kv] artifacts one shard per store shard.
    Metric names are the registry's ({!Sbft_sim.Metric_names});
    histogram percentiles are nearest-rank over the fixed buckets
    ({!Stats.hist_percentile_sat}). *)

val histogram_json : Sbft_sim.Metrics.hist_snapshot -> Sbft_sim.Json.t

val metrics_json :
  ?run:(string * Sbft_sim.Json.t) list ->
  ?stabilization:Stabilization.t ->
  ?alerts:Alerts.t ->
  ?loadgen:Sbft_sim.Json.t ->
  ?series:Sbft_kv.Store.shard_series list ->
  ?queue_series:Sbft_sim.Series.t list ->
  ?regularity:int * int ->
  ?telemetry:Sbft_sim.Json.t ->
  ?shards:Sbft_sim.Json.t ->
  ?profile:Sbft_sim.Json.t ->
  metrics:Sbft_sim.Metrics.t ->
  per_node:(int * int) array ->
  unit ->
  Sbft_sim.Json.t
(** [regularity] is [(checked, violations)]; [telemetry] is
    {!Telemetry.to_json}'s convergence block, [shards] is
    {!Slo.to_json}'s per-shard SLO block and [profile] is
    {!Sbft_sim.Profile.to_json}'s self-profile — each embedded
    verbatim.

    [stabilization] is the detector bank's verdicts
    ({!Stabilization.to_json}).  The streaming blocks: [alerts] is the
    anomaly ruleset's firings ({!Alerts.to_json}), and [series] the
    per-shard windowed series plus their fleet merge (flush with
    {!Sbft_kv.Store.roll_series_to} first).

    The open-loop blocks: [loadgen] is {!Loadgen.to_json}'s admission
    accounting, and [queue_series] the generator's per-shard
    queue-depth series, spliced as a ["queue"] member into each shard's
    [series] row (same index order as [series]). *)

val write_file : path:string -> Sbft_sim.Json.t -> unit
