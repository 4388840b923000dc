(* The single home of every metric name in the tree.  Instrumentation
   sites refer to these bindings, never to string literals — a lint in
   the test suite (test_metric_names.ml) fails the build when a raw
   ["..."] reappears next to a Metrics call outside this module. *)

(* -- counters ------------------------------------------------------- *)

let net_sent = "net.sent"

let net_delivered = "net.delivered"

let net_dropped = "net.dropped"

let net_parked = "net.parked"

let net_injected = "net.injected"

let net_sent_kind_prefix = "net.sent."
(* Suffixed with the classifier's constructor name: net.sent.write_req … *)

let dl_transmissions = "dl.transmissions"

let dl_retransmissions = "dl.retransmissions"

let dl_acks = "dl.acks"

let client_write_retries = "client.write_retries"

let server_label_adoptions = "server.label_adoptions"

let server_label_rejections = "server.label_rejections"

let faults_injected = "faults.injected"

(* -- streaming observability (series / detector / alerts) ----------- *)

let stab_shards_stabilized = "stab.shards_stabilized"

let stab_time_to_stabilize_ticks = "stab.time_to_stabilize_ticks"

let stab_fleet_time_to_stabilize_ticks = "stab.fleet.time_to_stabilize_ticks"

let stab_shard_prefix = "stab.shard."
(* Suffixed with the shard index: stab.shard.<i> records that shard's
   online time-to-stabilize (histogram, one sample per run). *)

let alerts_prefix = "alerts."
(* Suffixed with the rule name: alerts.slo_burn / alerts.abort_spike /
   alerts.divergence count rising-edge firings of each anomaly rule. *)

let alert_rule_slo_burn = "slo_burn"

let alert_rule_abort_spike = "abort_spike"

let alert_rule_divergence = "divergence"

let alerts rule = alerts_prefix ^ rule

let stab_shard ~shard = Printf.sprintf "%s%d" stab_shard_prefix shard

(* -- histograms (virtual-tick latencies) --------------------------- *)

let write_collect_ticks = "op.write.collect_ticks"

let write_commit_ticks = "op.write.commit_ticks"

let write_total_ticks = "op.write.total_ticks"

let read_flush_ticks = "op.read.flush_ticks"

let read_decide_ticks = "op.read.decide_ticks"

let read_total_ticks = "op.read.total_ticks"

let read_abort_ticks = "op.read.abort_ticks"

let dl_ack_rtt_ticks = "dl.ack_rtt_ticks"

(* -- load generation ------------------------------------------------ *)

let loadgen_queue_wait_ticks = "loadgen.queue_wait_ticks"
(* Virtual ticks an accepted arrival spent queued before a free client
   dispatched it — the open-loop generator's fleet-wide admission
   delay.  Zero-heavy when offered load is below the knee. *)

(* -- per-shard (templated) ------------------------------------------ *)

(* Per-shard names are minted here and nowhere else: call sites go
   through [kv_shard], so the lint's no-literals rule holds even for
   dynamically numbered metrics, and the artifact naming scheme has a
   single definition.  Names are minted afresh on each call: per-op
   callers resolve a metric handle once, so minting happens only when
   a store is built and when a run's totals are flushed. *)

let kv_shard_prefix = "kv.shard."

type shard_field =
  | Shard_puts
  | Shard_gets
  | Shard_aborts
  | Shard_put_ticks
  | Shard_get_ticks
  | Shard_flow
  | Shard_op_ticks
  | Shard_offered
  | Shard_accepted
  | Shard_rejected
  | Shard_queue
  | Shard_e2e_ticks

let shard_field_name = function
  | Shard_puts -> "puts"
  | Shard_gets -> "gets"
  | Shard_aborts -> "aborts"
  | Shard_put_ticks -> "put_ticks"
  | Shard_get_ticks -> "get_ticks"
  | Shard_flow -> "flow"
  | Shard_op_ticks -> "op_ticks"
  | Shard_offered -> "offered"
  | Shard_accepted -> "accepted"
  | Shard_rejected -> "rejected"
  | Shard_queue -> "queue"
  | Shard_e2e_ticks -> "e2e_ticks"

let shard_fields =
  [
    Shard_puts;
    Shard_gets;
    Shard_aborts;
    Shard_put_ticks;
    Shard_get_ticks;
    Shard_flow;
    Shard_op_ticks;
    Shard_offered;
    Shard_accepted;
    Shard_rejected;
    Shard_queue;
    Shard_e2e_ticks;
  ]

let kv_shard ~shard field =
  Printf.sprintf "%s%d.%s" kv_shard_prefix shard (shard_field_name field)

(* -- registry ------------------------------------------------------- *)

type kind = Counter | Histogram | Prefix

let all =
  [
    (net_sent, Counter, "messages accepted by Network.send");
    (net_delivered, Counter, "messages handed to a registered handler");
    (net_dropped, Counter, "messages lost to crash, tamper or missing handler");
    (net_parked, Counter, "sends withheld by an active partition");
    (net_injected, Counter, "forged messages placed in channels");
    (net_sent_kind_prefix, Prefix, "per-constructor send counts (suffix = Msg.kind_names)");
    (dl_transmissions, Counter, "data-link packets put on the wire (incl. retransmits)");
    (dl_retransmissions, Counter, "data-link timer refires of the in-flight packet");
    (dl_acks, Counter, "data-link acks sent by receivers");
    (client_write_retries, Counter, "writes that re-timestamped and restarted");
    (server_label_adoptions, Counter, "WRITE requests whose timestamp dominated (ACK)");
    (server_label_rejections, Counter, "WRITE requests adopted on NACK (Figure 1b)");
    (faults_injected, Counter, "fault-plan events fired");
    (stab_shards_stabilized, Counter, "shards whose online detector declared stabilization");
    ( stab_time_to_stabilize_ticks,
      Histogram,
      "per-shard online time-to-stabilize samples (virtual ticks from the last \
       fault-plan event to the start of the clean window suffix)" );
    ( stab_fleet_time_to_stabilize_ticks,
      Histogram,
      "fleet-wide online time-to-stabilize (max over shards' clean-suffix starts)" );
    ( stab_shard_prefix,
      Prefix,
      "per-shard time-to-stabilize, stab.shard.<i>; minted only by \
       Metric_names.stab_shard" );
    ( alerts_prefix,
      Prefix,
      "rising-edge firings per anomaly rule, alerts.<rule> with rule one of \
       slo_burn (window error budget burn above threshold), abort_spike \
       (per-shard abort rate spiking over its trailing baseline), divergence \
       (shard abort rate diverging from the fleet median); minted only by \
       Metric_names.alerts" );
    (write_collect_ticks, Histogram, "write phase 1: GET_TS to timestamp quorum");
    (write_commit_ticks, Histogram, "write phase 2: WRITE broadcast to ack decision");
    (write_total_ticks, Histogram, "write invocation to response");
    (read_flush_ticks, Histogram, "read phase 1: FLUSH to label safety (find_read_label)");
    (read_decide_ticks, Histogram, "read phase 2: READ broadcast to WTSG decision");
    (read_total_ticks, Histogram, "read invocation to response, value outcomes");
    (read_abort_ticks, Histogram, "read invocation to response, abort outcomes");
    (dl_ack_rtt_ticks, Histogram, "data-link packet first transmit to full acknowledgment");
    ( loadgen_queue_wait_ticks,
      Histogram,
      "open-loop generator: virtual ticks accepted arrivals waited in the \
       admission queue before a free client picked them up" );
    ( kv_shard_prefix,
      Prefix,
      "per-shard KV metrics, kv.shard.<i>.<field> with field one of puts/gets \
       (completed operations), aborts (reads that aborted), put_ticks/get_ticks \
       (latency histograms), flow/op_ticks (streaming series: per-window op \
       flow with abort fraction, and op latency with its max), \
       offered/accepted/rejected (open-loop admission counters), queue \
       (streaming series of admission queue depth) and e2e_ticks (open-loop \
       end-to-end latency histogram: queue wait plus service); minted \
       only by Metric_names.kv_shard" );
  ]

let mem name =
  List.exists
    (fun (n, k, _) ->
      match k with
      | Prefix -> String.length name >= String.length n && String.sub name 0 (String.length n) = n
      | Counter | Histogram -> n = name)
    all
