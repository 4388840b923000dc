(** The typed event vocabulary of the observability layer.

    Every layer of the stack narrates itself in these terms: the
    network (message lifecycle), the data-link (retransmissions, ack
    round-trips), the protocol automata (operation spans, quorums,
    label adoptions), the fault injector and the checkers.  Events are
    plain data — ints and strings only — so this module sits at the
    bottom of the dependency order and every tier can emit them.

    The [op_id] carried by operation events is the {e history}
    operation id ({!Sbft_spec.History}), so a trace slices directly
    against checker verdicts: a regularity violation names the same ids
    the [Op_started]/[Op_finished] events do.

    The [span] carried by operation and message events is the
    {e run-global} span id ({!Engine.fresh_span}): one id per client
    operation, unique across every deployment sharing the engine (the
    kv store runs one register {e per key}, so history op ids collide
    across keys — span ids do not).  Messages inherit the span of the
    operation that caused them, requests and replies alike, which is
    what lets {!Sbft_analysis.Spans} rebuild each operation's RPC tree
    after the fact.  [no_span] (-1) marks unattributed events and is
    omitted from the JSON encoding.

    Event names and payload fields are part of the machine-readable
    artifact format; see DESIGN.md "Observability". *)

type t =
  | Msg_sent of { src : int; dst : int; kind : string; span : int }
  | Msg_delivered of { src : int; dst : int; kind : string; span : int }
  | Msg_dropped of { src : int; dst : int; kind : string; reason : string; span : int }
      (** [reason]: ["crashed"], ["tampered"], ["no_handler"]. *)
  | Retransmit of { label : int }  (** data-link timer refire *)
  | Ack_roundtrip of { label : int; ticks : int }
      (** data-link packet fully acknowledged, first transmit to last ack *)
  | Quorum_formed of { op_id : int; client : int; phase : string; size : int; span : int }
  | Label_adopted of { server : int; writer : int; ack : bool }
      (** server overwrote its ⟨value, ts⟩ pair; [ack] is whether the
          incoming timestamp dominated (Figure 1b adopts either way) *)
  | Epoch_changed of { node : int; epoch : int; what : string }
      (** bounded-name reuse rolled over, e.g. a reader picked read
          label [epoch] ([what = "read_label"]) *)
  | Fault_injected of { desc : string }
  | Op_started of { op_id : int; client : int; kind : string; span : int }
      (** [kind]: write/read *)
  | Op_phase of { op_id : int; client : int; phase : string; ticks : int; span : int }
      (** phase completed after [ticks] of virtual time; phases are
          ["collect"]/["commit"]/["retry"] for writes and
          ["flush"]/["decide"] for reads *)
  | Op_finished of {
      op_id : int;
      client : int;
      kind : string;
      outcome : string;
      ticks : int;
      span : int;
    }
  | Violation of { op_id : int; kind : string; detail : string }
  | Server_state of { server : int; value : int; ts : string; sting : int; hist_len : int; readers : int }
      (** periodic convergence snapshot of one server: stored value,
          rendered timestamp, its SBLS sting (for label-space occupancy
          series), history-window fill and pending running-reader count *)
  | Span_tag of { span : int; tag : string; v : int }
      (** attach an integer attribute to a span from a layer that knows
          something the client automaton does not — e.g. the kv store
          tags each operation's span with its shard ([tag = "shard"]) *)
  | Alert of { shard : int; rule : string; severity : string; detail : string; window : int }
      (** an anomaly rule fired while the run executed: [rule] is the
          rule name (slo_burn / abort_spike / divergence), [shard] the
          shard it fired on (-1 for fleet-wide), [window] the tumbling
          window index the evidence came from *)

val no_span : int
(** The sentinel span id (-1) of unattributed events. *)

val op_id : t -> int option
(** The operation this event belongs to, for span slicing. *)

val span : t -> int
(** The run-global span id stamped on the event, or {!no_span}. *)

val location : t -> int option
(** The endpoint where the event {e happens}: a send at its source, a
    delivery (or drop) at its destination, an operation event at its
    client, a snapshot or adoption at its server.  [None] for events
    with no natural lifeline (faults, data-link internals, alerts) —
    the space-time diagram renders those rows without a marker. *)

val index : t -> int
(** Dense constructor index in [0, Array.length kinds): the
    allocation-free key for per-kind counters (profiler attribution). *)

val kinds : string array
(** [kinds.(index ev) = name ev] for every event. *)

val to_json : time:int -> t -> Json.t
(** One JSONL record: [{"t": time, "ev": name, ...payload}].  The
    ["span"] member is present only when the event is span-attributed. *)

val of_json : Json.t -> (int * t, string) result
(** Inverse of {!to_json}: parse one trace record back into its
    timestamp and typed event.  Total over the artifact format; unknown
    ["ev"] names and missing fields are [Error]s naming the problem.  A
    missing ["span"] member parses as {!no_span}, so pre-span artifacts
    still load. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
