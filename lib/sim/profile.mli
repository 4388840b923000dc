(** Engine self-profiling: where does wall time go?

    A flat self-time profiler over a small fixed set of engine phases
    (message delivery bookkeeping, server steps, client steps, the
    checker, the telemetry probe), plus per-event-kind counters fed by
    a trace sink for top-K attribution of trace volume.  [enter]/
    [leave] nest; every transition charges elapsed monotonic-clock
    time to the phase that was running, so totals are {e self} times
    and sum to at most the wall time (the remainder is engine dispatch
    and workload logic, reported as [other]).

    Cost model: disabled, [enter]/[leave] are one branch each and the
    hot path allocates nothing; enabled, each transition adds two
    monotonic-clock reads and still allocates nothing (times are
    integer nanoseconds).  The profiler never draws simulation
    randomness and never touches virtual time, so enabling it cannot
    perturb replay determinism. *)

type phase = Delivery | Server_step | Client_step | Checker | Telemetry | Other

val phases : phase list

val phase_label : phase -> string

type t

val create : unit -> t
(** Disabled; {!enable} arms it. *)

val enable : t -> unit
(** Reset all counters and start the wall clock. *)

val enabled : t -> bool

val reset : t -> unit

val enter : t -> phase -> unit
(** Push a phase (no-op when disabled).  Callers must pair with
    {!leave}; exceptions escaping between the two leave the phase
    open, which only skews attribution, never correctness. *)

val leave : t -> unit

val with_phase : t -> phase -> (unit -> 'a) -> 'a
(** [enter]/[leave] around [f] with exception safety; prefer the bare
    pair on allocation-sensitive paths. *)

val count_event : t -> Event.t -> unit

val event_sink : t -> Trace.sink
(** Install on a trace to count event kinds as they are emitted (the
    sampled subset at [Sampled] level — attribution follows what the
    artifact would contain). *)

type report = {
  wall_s : float;  (** enable-to-report wall seconds *)
  phase_rows : (string * int * float) list;  (** label, enters, self seconds *)
  event_rows : (string * int) list;  (** kind, count — descending, top-K *)
  events_total : int;
}

val report : ?top:int -> t -> report
(** [top] bounds [event_rows] (default 8). *)

val to_json : report -> Json.t
(** The metrics artifact's ["profile"] member. *)

val pp : Format.formatter -> report -> unit
(** Human-readable table: per-phase enters/self-ms/percent-of-wall and
    the top event kinds. *)
