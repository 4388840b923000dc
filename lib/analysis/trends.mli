(** Cross-run metric trends: ingest metrics/bench artifacts into an
    append-only run database and flag drift between runs.

    An artifact (a [--metrics-out] snapshot, a BENCH report) is
    flattened to dotted numeric paths — every [Int]/[Float] leaf of the
    JSON tree, lists skipped because positional entries churn with
    topology.  Runs append to a JSONL database; drift compares the
    latest run against its predecessor metric-by-metric with a
    symmetric relative difference, so a regression gate can watch any
    artifact the repo already produces without bespoke schemas. *)

type run = { source : string; label : string; metrics : (string * float) list }

type drift = { metric : string; prev : float; cur : float; rel : float }

val extract : Sbft_sim.Json.t -> (string * float) list
(** Dotted-path numeric leaves, document order. *)

val of_json : source:string -> ?label:string -> Sbft_sim.Json.t -> run

val load_artifact : string -> (run, string) result
(** Read one JSON artifact file into a run ([source] = basename,
    [label] = full path).  [Error] names the file when it cannot be
    read (e.g. a directory) or parsed. *)

val append : db:string -> run -> unit
(** Append one run to the JSONL database, creating it if missing. *)

val load_db : string -> (run list, string) result
(** All runs in append order; a missing file is an empty database.  A
    malformed line is an [Error] naming the file and the line. *)

val rel_drift : float -> float -> float
(** [|a - b| / max(|a|, |b|, 1e-9)] — symmetric, and tiny
    absolute values cannot manufacture huge relative drift. *)

val compare_runs : tolerance:float -> prev:run -> cur:run -> drift list
(** Metrics present in both runs whose relative drift exceeds
    [tolerance].  Metrics only in [cur] are growth, not drift. *)

val latest_drift : tolerance:float -> run list -> (run * run * drift list) option
(** Compare the last two runs of a database; [None] with fewer than
    two runs. *)

val pp_drift : Format.formatter -> drift -> unit
