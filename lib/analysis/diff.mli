(** The one artifact comparator behind [sbftreg diff]: flatten two
    JSON artifacts to dotted numeric paths and band every path by
    relative difference.

    - every [Int]/[Float] leaf is compared, except inside lists, whose
      positional entries (per-node rows, bucket arrays, raw samples)
      churn with topology, and under the top-level wall-clock
      [profile] member;
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

val compare : ?tolerance:tolerance -> Sbft_sim.Json.t -> Sbft_sim.Json.t -> report
(** One row per compared path on either side, sorted by path;
    [tolerance] defaults to 0.2. *)

val label : row -> string
(** ["NEW"], ["GONE"], or the verdict ("ok", "WARN", "FAIL"). *)

val pp : Format.formatter -> report -> unit
(** Table of non-[Ok] rows (plus a summary line counting the rest). *)

val pp_full : Format.formatter -> report -> unit
(** Every row, including matches. *)
