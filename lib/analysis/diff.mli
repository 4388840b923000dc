(** The one artifact comparator: flatten two JSON artifacts to dotted
    numeric paths and band every path by relative difference.

    [sbftreg diff] and [sbftreg trends] are thin front-ends over this
    module and differ only in which paths they keep and which verdicts
    they turn into an exit code.  The rules are the same for both:

    - a row's [rel] is [|a - b| / max(|a|, |b|, 1e-9)] — symmetric,
      and tiny absolute values cannot manufacture huge relative drift;
    - within the tolerance is [Ok], within 3x the tolerance [Warn],
      beyond that [Fail];
    - [regularity.violations] is exact, because one extra violation is
      never noise;
    - a path on one side only is a [Warn] row labelled [NEW] (only in
      [b]) or [GONE] (only in [a]): printed, never dropped. *)

type verdict = Ok | Warn | Fail

type row = {
  path : string;  (** dotted JSON path, e.g. ["counters.net.sent"] *)
  a : float option;  (** [None] = absent on this side *)
  b : float option;
  rel : float;  (** relative difference, 0 when either side is absent *)
  verdict : verdict;
}

type report = { rows : row list; worst : verdict }

type tolerance = private float

val tolerance : float -> (tolerance, string) result
(** A finite, non-negative tolerance; anything else (e.g. [nan], which
    would pass every row) is an [Error] naming the [--tolerance] flag. *)

val flatten : keep:(string -> bool) -> Sbft_sim.Json.t -> (string * float) list
(** Every [Int]/[Float] leaf whose dotted path satisfies [keep], in
    document order.  Lists are skipped: positional entries (per-node
    rows, bucket arrays, raw samples) churn with topology. *)

val compare_flat :
  tolerance:tolerance -> (string * float) list -> (string * float) list -> report
(** Band two flattened artifacts, one row per path on either side,
    sorted by path. *)

val compare : ?tolerance:tolerance -> Sbft_sim.Json.t -> Sbft_sim.Json.t -> report
(** Two [--metrics-out] artifacts; [tolerance] defaults to 0.2.  Only
    the numeric leaves under [counters], [histograms] (the summary
    fields), [regularity], [stabilization], [run.wall_ticks] and
    [telemetry.summary] are compared. *)

val drifted : report -> row list
(** Rows present on both sides whose verdict is not [Ok]. *)

val label : row -> string
(** ["NEW"], ["GONE"], or the verdict ("ok", "WARN", "FAIL"). *)

val pp : Format.formatter -> report -> unit
(** Table of non-[Ok] rows (plus a summary line counting the rest). *)

val pp_full : Format.formatter -> report -> unit
(** Every row, including matches. *)
