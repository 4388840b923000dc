(** Registry of every metric name used by the instrumentation.

    Call sites must use these bindings instead of inline string
    literals: the names are part of the machine-readable artifact
    format ([--metrics-out]) and the registry's doc strings are the
    format's documentation.  A source lint in the test suite keeps the
    tree honest. *)

val net_sent : string

val net_delivered : string

val net_dropped : string

val net_parked : string

val net_injected : string

val net_sent_kind_prefix : string
(** Prefix for per-message-kind send counters; the suffix is the
    network's classifier output (e.g. [net.sent.write_req]). *)

val dl_transmissions : string

val dl_retransmissions : string

val dl_acks : string

val client_write_retries : string

val server_label_adoptions : string

val server_label_rejections : string

val faults_injected : string

(** {1 Streaming observability}

    Names for the series/detector/alert layer (PR 8).  The stabilization
    names carry the online detector's verdicts; the alert names count
    rising-edge rule firings. *)

val stab_shards_stabilized : string

val stab_time_to_stabilize_ticks : string

val stab_fleet_time_to_stabilize_ticks : string

val stab_shard : shard:int -> string
(** [stab_shard ~shard] is ["stab.shard.<shard>"]. *)

val alert_rule_slo_burn : string

val alert_rule_abort_spike : string

val alert_rule_divergence : string

val alerts : string -> string
(** [alerts rule] is ["alerts.<rule>"] — the counter bumped on each
    rising-edge firing of an anomaly rule. *)

(** Histogram names record virtual-tick latencies via
    {!Metrics.record}. *)

val write_collect_ticks : string

val write_commit_ticks : string

val write_total_ticks : string

val read_flush_ticks : string

val read_decide_ticks : string

val read_total_ticks : string

val read_abort_ticks : string

val dl_ack_rtt_ticks : string

val loadgen_queue_wait_ticks : string
(** Open-loop generator: virtual ticks an accepted arrival waited in
    the admission queue before a free client dispatched it. *)

(** {1 Per-shard names}

    Dynamically numbered metrics ([kv.shard.<i>.<field>]) are minted
    exclusively by {!kv_shard}, keeping the no-literals lint meaningful
    for templated names: call sites never [Printf] a metric name. *)

type shard_field =
  | Shard_puts  (** completed puts on the shard *)
  | Shard_gets  (** completed (value-returning) gets *)
  | Shard_aborts  (** gets that aborted *)
  | Shard_put_ticks  (** put latency histogram, virtual ticks *)
  | Shard_get_ticks  (** get latency histogram, virtual ticks *)
  | Shard_flow  (** streaming series: ops per window, sum = aborts *)
  | Shard_op_ticks  (** streaming series: successful-op latency, per-window max *)
  | Shard_offered  (** open-loop arrivals routed to the shard *)
  | Shard_accepted  (** arrivals admitted (queued or dispatched) *)
  | Shard_rejected  (** arrivals shed: the admission queue was full *)
  | Shard_queue  (** streaming series: admission queue depth *)
  | Shard_e2e_ticks  (** open-loop end-to-end latency (queue + service) *)

val shard_fields : shard_field list

val shard_field_name : shard_field -> string

val kv_shard : shard:int -> shard_field -> string
(** [kv_shard ~shard field] is ["kv.shard.<shard>.<field>"], minted on
    each call (any shard index, negative ones from corrupted state
    included).  Hot paths resolve a {!Metrics} handle once instead of
    calling this per operation. *)

type kind = Counter | Histogram | Prefix

val all : (string * kind * string) list
(** [(name-or-prefix, kind, doc)] for every registered metric. *)

val mem : string -> bool
(** Whether a concrete metric name is covered by the registry (exact
    match, or extends a registered prefix). *)
