(** Summary statistics over float samples. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
}

val summarize : float array -> summary
(** All-zero summary for an empty array. *)

val mean : float array -> float

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0, 100\]], nearest-rank on a
    sorted copy.  Edge behavior is explicit, not an artifact of
    clamping: [p <= 0] returns the minimum (nearest-rank would demand
    rank 0, which does not exist — the minimum is the only sensible
    answer), [p >= 100] returns the maximum, and the empty array
    yields 0. *)

val hist_percentile_sat : bounds:float array -> counts:int array -> float -> float * bool
(** Nearest-rank percentile over fixed-bucket histogram counts (see
    {!Sbft_sim.Metrics.hist_snapshot}): walks the cumulative counts
    and returns the upper bound of the bucket holding the ranked
    sample.  Resolution is therefore one bucket — exact enough for the
    geometric tick buckets the instrumentation uses.  Empty histograms
    yield [(0., false)].

    The boolean is the {e saturation} flag: [true] when the ranked
    sample landed in the overflow bucket, i.e. beyond every finite
    bound.  The returned value is then the last bound — a lower bound
    on the true percentile, not an estimate of it — and consumers
    (e.g. the metrics JSON) must mark it as such instead of silently
    under-reporting tail latency. *)

val hist_percentile_resolved : Sbft_sim.Metrics.hist_snapshot -> float -> float * bool
(** Like {!hist_percentile_sat} but with the histogram's streaming
    quantile digest as the saturation fallback: an in-range percentile
    is the exact bucket answer ([false]), a clamped one is replaced by
    the digest's estimate (still [true] — it is an estimate, not a
    bucket-exact rank). *)

val pp_summary : Format.formatter -> summary -> unit

val of_ints : int list -> float array
