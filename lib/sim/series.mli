(** Bounded-memory streaming time series.

    The post-hoc observability stack (trace artifacts, span trees)
    caps out where full tracing does; this module is the streaming
    alternative: tumbling-window aggregates that cost O(1) memory per
    window however long the run, an associative window merge so
    per-shard series roll up into fleet series without keeping either
    side's samples, and an online pseudo-stabilization detector that
    declares the paper's stabilization point while the run executes.

    Everything is driven by the virtual clock and operation
    completions, never by the trace, so every number is bit-identical
    across trace levels and under replay. *)

(** One window's aggregate: count, sum, min and max.  There is no
    percentile here: a window's exact max is its nearest-rank p99
    whenever it holds at most 100 samples, and latency percentiles
    come from the {!Metrics} bucket histograms. *)
module Agg : sig
  type t = {
    mutable count : int;
    mutable sum : float;
    mutable min : float;  (** +inf when empty; read via {!min} *)
    mutable max : float;  (** -inf when empty; read via {!max} *)
  }

  val empty : unit -> t

  val is_empty : t -> bool

  val observe : t -> float -> unit

  val mean : t -> float

  val min : t -> float
  (** 0 when empty. *)

  val max : t -> float
  (** 0 when empty. *)

  val merge : t -> t -> t
  (** Exact and associative — the window-merge law the fleet rollup
      and the tests rely on. *)

  val to_json : t -> Json.t
end

type t
(** A tumbling-window series: one open window, a ring of the last
    [keep] closed windows, one all-time rollup. *)

val create : ?keep:int -> window:int -> name:string -> unit -> t
(** [create ~window ~name ()] makes a series with [window]-tick
    tumbling windows keeping the last [keep] (default 64) closed
    windows. *)

val name : t -> string

val window : t -> int

val observe : t -> time:int -> float -> unit
(** Record [v] at virtual [time], closing any windows that end at or
    before it first.  Times must be non-decreasing (the virtual clock
    is). *)

val roll_to : t -> time:int -> unit
(** Close every window ending at or before [time] without recording
    anything — the end-of-run flush.  Gaps longer than [keep] windows
    fast-forward in O(keep): only the last [keep] windows are
    observable, and the skipped ones are all empty. *)

val total : t -> Agg.t
(** The all-time rollup. *)

val closed_windows : t -> int

val recent : t -> ?n:int -> unit -> (int * Agg.t) list
(** The last [n] closed windows, oldest first, as
    [(window_index, aggregate)]; empty windows are materialized.
    Window [i] covers ticks [[i*window, (i+1)*window)). *)

val merge_recent : ?n:int -> t list -> (int * Agg.t) list
(** Point-wise {!Agg.merge} of several same-width series' recent
    windows — the fleet view of per-shard series.  Raises
    [Invalid_argument] when window widths differ. *)

val to_json : t -> Json.t
(** Every window the ring still holds, as parallel lists [t] (window
    start), [count], [sum], [mean] and [max], plus the running
    total. *)

(** Online pseudo-stabilization detector: watches a dirty/clean signal
    per window and declares the stabilization point once [k]
    consecutive fully-elapsed windows after the last fault are clean.
    A later dirty window revokes a provisional declaration, so the
    final state is the earliest clean point with no dirt after it.
    Three integers of state; deterministic under replay. *)
module Detector : sig
  type state =
    | Pending
    | Stabilized of int  (** virtual time the clean suffix starts *)

  type t

  val create : ?k:int -> window:int -> after:int -> unit -> t
  (** [after] is the time of the last injected fault (0 when none);
      the time-to-stabilize clock starts there.  [k] defaults to 3. *)

  val observe : t -> time:int -> dirty:bool -> unit
  (** Feed one op completion; the detector does its own windowing. *)

  val step : t -> index:int -> dirty:bool -> unit
  (** Lower-level: account for window [index] directly (indices
      non-decreasing; gaps count as clean windows). *)

  val finalize : t -> now:int -> state
  (** Count every fully elapsed window up to virtual time [now] as
      clean and return the final state. *)

  val state : t -> state

  val time_to_stabilize : t -> int option
  (** [Stabilized at - after], once declared. *)

  val dirty_windows : t -> int

  val to_json : t -> Json.t
end
