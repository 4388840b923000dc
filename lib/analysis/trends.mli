(** Cross-run metric trends: ingest metrics/bench artifacts into an
    append-only run database and compare the latest run against its
    predecessor.

    An artifact (a [--metrics-out] snapshot, a BENCH report) is
    flattened by {!Diff.flatten} to every numeric leaf of the JSON tree;
    runs append to a JSONL database, and drift is {!Diff.compare_flat}
    over the last two runs — so a regression gate can watch any artifact
    the repo already produces without bespoke schemas. *)

type run = { source : string; label : string; metrics : (string * float) list }

val of_json : source:string -> ?label:string -> Sbft_sim.Json.t -> run

val load_artifact : string -> (run, string) result
(** Read one JSON artifact file into a run ([source] = basename,
    [label] = full path).  [Error] names the file when it cannot be
    read (e.g. a directory) or parsed. *)

val append : db:string -> run -> (unit, string) result
(** Append one run to the JSONL database, creating it if missing.
    [Error] names the file when it cannot be written. *)

val load_db : string -> (run list, string) result
(** All runs in append order; a missing file is an empty database.  A
    malformed line is an [Error] naming the file and the line. *)

val latest_drift : tolerance:Diff.tolerance -> run list -> (run * run * Diff.report) option
(** Compare the last two runs of a database ([a] = the older);
    [None] with fewer than two runs. *)
