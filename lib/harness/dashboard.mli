(** Plain-text live dashboard over a running kv store's streaming
    series: a per-shard sparkline of abort rate per closed window, a
    fleet rollup row (the associative window merge), the stabilization
    verdicts and active alerts.

    Rendering reads state and draws no randomness — watching a run
    cannot change it.  [sbftreg watch] prints a frame per heartbeat on
    the {!Progress} wall-clock pacing. *)

type t

val create : ?stabilization:Stabilization.t -> ?alerts:Alerts.t -> Sbft_kv.Store.t -> t
(** Sparklines span the last 32 closed windows. *)

val render : t -> string
(** One complete frame, trailing newline included. *)
