(** Post-hoc span assembly: from a flat event trace to one tree per
    client operation, with a total attribution of each operation's
    latency to named phases.

    The simulator's hot path carries only an integer span id
    ({!Sbft_sim.Engine.fresh_span}) stamped on operation events and
    inherited by every message an operation causes
    ({!Sbft_channel.Network.with_span}).  This module does the
    expensive part offline: group a trace by span id, rebuild each
    operation's round phases and per-server RPC legs, and carve each
    phase window into a critical path.

    {b Critical path.}  Phase windows tile the operation's lifetime
    (each [Op_phase] mark closes the window since the previous mark).
    Inside a window, the boundaries of the {e fastest completing} round
    trip split it into [dispatch] (before the first request left),
    [net.request], [server.service], [net.reply], and [quorum.wait]
    (from the first full reply to the phase mark — the wait for the
    quorum's straggler).  Boundaries are clamped monotone inside the
    window, so the segments always sum exactly to the window length:
    attribution is total by construction, and {!coverage} only drops
    below 1.0 when the trace lost phase marks (a window cut mid-op, or
    an artifact thinned per event rather than per span). *)

type leg = {
  server : int;
  kind : string;  (** request message kind *)
  req_sent : int;
  req_recv : int option;  (** [None]: dropped or still in flight *)
  reply_sent : int option;
  reply_recv : int option;
}
(** One request/reply round trip between the client and one server. *)

type phase = {
  name : string;  (** collect/commit/retry for writes, flush/decide for reads *)
  start_ : int;
  finish : int;
  quorum : int option;  (** size of the quorum that closed the phase *)
  legs : leg list;  (** round trips whose request was sent in the window *)
}

type op = {
  span : int;
  op_id : int;
  client : int;
  kind : string;
  started : int;
  finished : int option;
  outcome : string option;
  total : int option;
  shard : int option;  (** from the kv store's [Span_tag], when present *)
  phases : phase list;
}

type segment = { phase : string; label : string; ticks : int }
(** One critical-path slice; [label] is [dispatch], [net.request],
    [server.service], [net.reply], [quorum.wait], [retry],
    [client.local] (a window with no RPCs) or [stall] (a window whose
    round trips never completed). *)

val build : (int * Sbft_sim.Event.t) list -> op list
(** Assemble span trees from [(time, event)] pairs in emission order.
    Events without a span id are ignored; spans whose [Op_started] is
    missing (cut off by a forensic window) are dropped.  Ops are
    returned in first-seen order. *)

val critical_path : op -> segment list
(** Phase-by-phase attribution of the op's lifetime; segments appear
    in time order and sum to the tiled window lengths. *)

val coverage : op -> float
(** Attributed ticks / measured total ([Op_finished ticks]); 1.0 for a
    fully traced finished op (a head-sampled trace records its spans
    whole), lower when the trace lost phase marks, 0.0 for an op with
    no phase marks at all. *)

type agg_row = {
  group : string;  (** ["all"], or ["shard <i>"]/["unsharded"] with [by_shard] *)
  op_kind : string;
  count : int;
  p50 : int;
  p95 : int;
  p99 : int;
  breakdown : (string * float) list;
      (** mean critical-path ticks per op, keyed ["<phase>.<label>"] *)
  min_coverage : float;
}

val aggregate : ?by_shard:bool -> op list -> agg_row list
(** Latency percentiles (nearest-rank over finished ops) and mean
    phase-attributed breakdown, grouped by operation kind and
    optionally by shard. *)

val pp_waterfall : Format.formatter -> op -> unit
(** ASCII waterfall of one op's critical path. *)

val pp_agg_row : Format.formatter -> agg_row -> unit

val to_json : op list -> Sbft_sim.Json.t
(** Array of span trees with critical paths and coverage, the
    machine-readable output of [sbftreg spans --json]. *)
