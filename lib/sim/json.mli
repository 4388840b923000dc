(** Minimal JSON tree, emitter and parser.

    The run artifacts ([--trace-out] JSONL, [--metrics-out] snapshots)
    are plain JSON, and the container has no JSON library — this is
    the small closed-world implementation they share.  The emitter
    escapes control characters and passes UTF-8 bytes through; the
    parser accepts everything the emitter produces plus standard JSON
    escapes ([\uXXXX] sequences, including surrogate pairs, decode to
    UTF-8), so foreign artifacts load too. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering (no newlines), suitable for one-line-per-record
    JSONL streams. *)

val of_string : string -> (t, string) result
(** Parse one complete JSON value; [Error] carries the offset of the
    first problem. *)

val of_file : string -> (t, string) result
(** Read and parse one JSON file.  An unreadable path (missing, a
    directory, no permission) or malformed content is an [Error] whose
    message names the file — never an exception. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on anything else. *)
