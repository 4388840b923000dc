(** Declarative fault timelines.

    Experiments and tests describe {e when} faults strike as data and
    let the interpreter schedule them, instead of hand-rolling engine
    callbacks.  The vocabulary covers the paper's whole failure model —
    transient corruption of state and channels, Byzantine takeover,
    crash, asymmetric slowness — plus {!Heal}, which restores a
    compromised server's {e correct automaton} (with whatever stale
    state it last had).

    Heal is the §VI unification made executable: a server that was
    Byzantine for a bounded window and then heals is indistinguishable
    from a correct server hit by a transient fault — its state is
    arbitrary but its behaviour is honest again — so the register must
    reabsorb it by the next completed write, without any server ever
    restarting.  Experiment E19 runs exactly such fault storms.

    Plans are pure data (Byzantine takeovers name their strategy; the
    handler is resolved from {!Strategies.all} at apply time), so a
    timeline serializes into a run header and a fuzzer can mutate it
    structurally.  See {!to_string} for the compact one-line form the
    CLI's [--plan] flag accepts. *)

type event =
  | Corrupt_server of int * [ `Light | `Heavy ]
  | Corrupt_client of int
  | Corrupt_channels of float  (** density of forged in-flight messages *)
  | Corrupt_everything of [ `Light | `Heavy ]
  | Byzantine of int * string
      (** take over one server with the named {!Strategies.all} entry *)
  | Heal of int  (** reconnect the server's correct automaton, stale state and all *)
  | Crash of int  (** permanent endpoint crash (clients, typically) *)
  | Slow_node of int * int  (** node, factor *)
  | Slow_channel of int * int * int  (** src, dst, factor *)
  | Partition of int list list  (** split endpoints into groups (see {!Sbft_channel.Network.partition}) *)
  | Heal_partition

type t = (int * event) list
(** [(virtual_time, event)] pairs; times need not be sorted. *)

val apply : ?monitor:Sbft_core.Invariants.t -> Sbft_core.System.t -> t -> unit
(** Schedule every event.  When [monitor] is given, corruption events
    also call {!Sbft_core.Invariants.notify_corruption} so the
    stabilization clock restarts correctly.  Raises [Invalid_argument]
    when a {!Byzantine} event names an unknown strategy — deserialized
    plans are validated at parse time, so this only fires on
    hand-constructed plans. *)

val storm : seed:int64 -> n:int -> f:int -> clients:int -> waves:int -> every:int -> t
(** A random fault storm: [waves] bursts, [every] ticks apart; each
    wave corrupts a random subset of servers, flips a coin between
    Byzantine takeover (healed one wave later) and transient
    corruption, and sprinkles channel garbage.  Never exceeds [f]
    simultaneously-Byzantine servers. *)

val pp : Format.formatter -> t -> unit

(** {1 Serialization}

    One event is ["at:kind[:args]"] (e.g. ["120:byz:4:equivocate"],
    ["300:corrupt-server:2:heavy"], ["50:partition:0.1.2|3.4.5"]); a
    plan is a comma-separated list of those.  The same strings carry
    the plan inside a {!Sbft_analysis.Run_header.t}, so every recorded
    trace replays its fault timeline exactly. *)

val to_strings : t -> string list
(** One event string per event, in plan order. *)

val of_strings : string list -> (t, string) result

val to_string : t -> string
(** Comma-separated {!to_strings} — the CLI [--plan] syntax. *)

val of_string : string -> (t, string) result
(** Inverse of {!to_string}; [""] is the empty plan.  Validates
    strategy names against {!Strategies.all}. *)

(** {1 Timeline queries and mutation} *)

val last_at : t -> int
(** Time of the latest event (0 for the empty plan) — the point after
    which the stabilization audit may begin. *)

val byz_budget_ok : f:int -> t -> bool
(** Replaying the timeline, are at most [f] servers Byzantine at any
    moment?  (Byzantine adds its target to the compromised set, Heal
    removes it.) *)

val has_byzantine : t -> bool

val partitions_healed : t -> bool
(** Is the latest {!Partition} followed (or accompanied) by a
    {!Heal_partition}?  A permanently-partitioned system has in effect
    crashed more than [f] servers, which the model does not cover, so
    {!mutate} refuses timelines where this fails. *)

val restrict : n:int -> clients:int -> t -> t
(** Drop events that reference endpoints outside an [n]-server,
    [clients]-client system (a mutation that shrinks the client count
    can orphan an earlier event's target).  {!Scenario.execute} rejects
    plans this would change, so the fuzzer applies it after every
    mutation. *)

val mutate : Sbft_sim.Rng.t -> n:int -> f:int -> clients:int -> t -> t
(** One structural mutation: add a random event (or a
    partition-and-heal window), drop one, shift one in time, or retype
    one in place.  Returns the input unchanged when the mutation would
    exceed the [f] Byzantine budget, so fuzzed schedules always stay
    inside the model. *)
