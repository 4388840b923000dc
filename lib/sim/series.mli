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

(** Mergeable streaming quantile digest (P²-style weighted markers,
    fixed capacity).  Rank error is ~1/cap; memory is 2·cap floats.
    Unlike the fixed-bucket histograms, the digest adapts to the data,
    so p99 never saturates against a bucket ceiling. *)
module Quantile : sig
  type t

  val create : ?cap:int -> unit -> t
  (** [cap] defaults to 64 markers: ≲2% rank error through a merge. *)

  val add : t -> float -> unit

  val count : t -> int

  val quantile : t -> float -> float
  (** [quantile t p] estimates the [p]-th percentile ([p] in [0,100]).
      0 on an empty digest. *)

  val merge : t -> t -> t
  (** A fresh digest summarizing both inputs' samples.  Associative and
      commutative up to the digest's rank error (qcheck-held). *)

  val markers : t -> float array * float array
  (** The digest's markers, after folding in buffered samples: means
      in increasing order and their weights. *)
end

(** One window's aggregate: count, sum, min, max and (optionally) a
    quantile digest. *)
module Agg : sig
  type t = {
    mutable count : int;
    mutable sum : float;
    mutable min : float;  (** +inf when empty; read via {!min} *)
    mutable max : float;  (** -inf when empty; read via {!max} *)
    mutable q : Quantile.t option;
  }

  val empty : unit -> t

  val is_empty : t -> bool

  val observe : ?quantiles:bool -> t -> float -> unit

  val mean : t -> float

  val min : t -> float
  (** 0 when empty. *)

  val max : t -> float
  (** 0 when empty. *)

  val quantile : t -> float -> float
  (** 0 when no digest was kept. *)

  val merge : t -> t -> t
  (** Exact for count/sum/min/max, within digest rank error for
      quantiles.  Associative — the window-merge law the fleet rollup
      and the tests rely on. *)

  val to_json : t -> Json.t
end

type t
(** A tumbling-window series: one open window, a ring of the last
    [keep] closed windows, one all-time rollup. *)

val create : ?keep:int -> ?quantiles:bool -> window:int -> name:string -> unit -> t
(** [create ~window ~name ()] makes a series with [window]-tick
    tumbling windows keeping the last [keep] (default 64) closed
    windows.  [quantiles] arms the per-window digest (for value
    series; pure event-rate series should leave it off). *)

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
(** Every window the ring still holds, plus the running total. *)

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
