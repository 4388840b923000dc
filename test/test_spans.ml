(* Span assembly and critical-path extraction. *)

module E = Sbft_sim.Event
module Json = Sbft_sim.Json
module Spans = Sbft_analysis.Spans
module Scenario = Sbft_harness.Scenario

(* ------------------------------------------------------------------ *)
(* Hand-built trace: one write, two servers, quorum of the faster one. *)

(* client 9 writes via servers 0 and 1: phase "collect" [10,20] closed
   by server 0's round trip (sent 10, recv 12, reply 13, back 15), then
   "commit" [20,26].  Server 1 is the straggler. *)
let tiny_write =
  [
    (10, E.Op_started { op_id = 0; client = 9; kind = "write"; span = 0 });
    (10, E.Msg_sent { src = 9; dst = 0; kind = "get_ts"; span = 0 });
    (10, E.Msg_sent { src = 9; dst = 1; kind = "get_ts"; span = 0 });
    (12, E.Msg_delivered { src = 9; dst = 0; kind = "get_ts"; span = 0 });
    (13, E.Msg_sent { src = 0; dst = 9; kind = "ts_reply"; span = 0 });
    (15, E.Msg_delivered { src = 0; dst = 9; kind = "ts_reply"; span = 0 });
    (18, E.Msg_delivered { src = 9; dst = 1; kind = "get_ts"; span = 0 });
    (19, E.Msg_sent { src = 1; dst = 9; kind = "ts_reply"; span = 0 });
    (20, E.Msg_delivered { src = 1; dst = 9; kind = "ts_reply"; span = 0 });
    (20, E.Quorum_formed { op_id = 0; client = 9; phase = "collect"; size = 2; span = 0 });
    (20, E.Op_phase { op_id = 0; client = 9; phase = "collect"; ticks = 10; span = 0 });
    (20, E.Msg_sent { src = 9; dst = 0; kind = "write_req"; span = 0 });
    (22, E.Msg_delivered { src = 9; dst = 0; kind = "write_req"; span = 0 });
    (23, E.Msg_sent { src = 0; dst = 9; kind = "write_ack"; span = 0 });
    (26, E.Msg_delivered { src = 0; dst = 9; kind = "write_ack"; span = 0 });
    (26, E.Op_phase { op_id = 0; client = 9; phase = "commit"; ticks = 6; span = 0 });
    (26, E.Op_finished { op_id = 0; client = 9; kind = "write"; outcome = "ok"; ticks = 16; span = 0 });
    (30, E.Span_tag { span = 0; tag = "shard"; v = 3 });
  ]

let test_build_tiny () =
  match Spans.build tiny_write with
  | [ op ] ->
      Alcotest.(check int) "span" 0 op.Spans.span;
      Alcotest.(check string) "kind" "write" op.Spans.kind;
      Alcotest.(check (option int)) "total" (Some 16) op.Spans.total;
      Alcotest.(check (option int)) "shard tag" (Some 3) op.Spans.shard;
      Alcotest.(check int) "two phases" 2 (List.length op.Spans.phases);
      let collect = List.hd op.Spans.phases in
      Alcotest.(check string) "phase name" "collect" collect.Spans.name;
      Alcotest.(check int) "window start" 10 collect.Spans.start_;
      Alcotest.(check int) "window finish" 20 collect.Spans.finish;
      Alcotest.(check (option int)) "quorum size" (Some 2) collect.Spans.quorum;
      Alcotest.(check int) "collect legs" 2 (List.length collect.Spans.legs);
      let leg0 = List.find (fun (l : Spans.leg) -> l.server = 0) collect.Spans.legs in
      Alcotest.(check (option int)) "req_recv" (Some 12) leg0.Spans.req_recv;
      Alcotest.(check (option int)) "reply_recv" (Some 15) leg0.Spans.reply_recv
  | ops -> Alcotest.failf "expected one op, got %d" (List.length ops)

let test_critical_path_tiny () =
  let op = List.hd (Spans.build tiny_write) in
  let segs =
    List.map (fun (s : Spans.segment) -> (s.phase ^ "." ^ s.label, s.ticks)) (Spans.critical_path op)
  in
  (* collect [10,20] carved by server 0's leg (10,12,13,15); commit
     [20,26] by its only leg (20,22,23,26) *)
  Alcotest.(check (list (pair string int)))
    "segments"
    [
      ("collect.net.request", 2);
      ("collect.server.service", 1);
      ("collect.net.reply", 2);
      ("collect.quorum.wait", 5);
      ("commit.net.request", 2);
      ("commit.server.service", 1);
      ("commit.net.reply", 3);
    ]
    segs;
  Alcotest.(check (float 0.0001)) "total attribution" 1.0 (Spans.coverage op)

let test_retry_and_stall () =
  let events =
    [
      (0, E.Op_started { op_id = 1; client = 9; kind = "write"; span = 5 });
      (4, E.Op_phase { op_id = 1; client = 9; phase = "retry"; ticks = 4; span = 5 });
      (* a window whose only leg never completed: stall *)
      (4, E.Msg_sent { src = 9; dst = 0; kind = "get_ts"; span = 5 });
      (9, E.Op_phase { op_id = 1; client = 9; phase = "collect"; ticks = 5; span = 5 });
      (9, E.Op_finished { op_id = 1; client = 9; kind = "write"; outcome = "ok"; ticks = 9; span = 5 });
    ]
  in
  let op = List.hd (Spans.build events) in
  let segs =
    List.map (fun (s : Spans.segment) -> (s.phase ^ "." ^ s.label, s.ticks)) (Spans.critical_path op)
  in
  Alcotest.(check (list (pair string int)))
    "retry then stall" [ ("retry.retry", 4); ("collect.stall", 5) ] segs;
  Alcotest.(check (float 0.0001)) "still total" 1.0 (Spans.coverage op)

(* ------------------------------------------------------------------ *)
(* Real runs. *)

let scenario ?(seed = 11L) ?(strategy = None) () =
  {
    Scenario.n = 6;
    f = 1;
    clients = 4;
    seed;
    ops_per_client = 12;
    write_ratio = 0.4;
    strategy;
    corrupt = false;
    delay = "uniform-10";
    plan = [];
    trace_cap = 4096;
    snapshot_every = 0;
  }

let run ?level ?sample s =
  match Scenario.execute ?level ?sample s with
  | Ok r -> r
  | Error e -> Alcotest.failf "scenario: %s" e

let test_full_run_coverage () =
  let r = run (scenario ()) in
  let ops = Spans.build r.events in
  Alcotest.(check bool) "spans assembled" true (List.length ops > 10);
  List.iter
    (fun (o : Spans.op) ->
      if o.total <> None then
        Alcotest.(check (float 0.0001))
          (Printf.sprintf "coverage of span %d" o.span)
          1.0 (Spans.coverage o))
    ops;
  (* every finished op has a span id and they are pairwise distinct *)
  let spans = List.map (fun (o : Spans.op) -> o.span) ops in
  Alcotest.(check int) "span ids unique" (List.length spans)
    (List.length (List.sort_uniq compare spans))

let test_critical_path_deterministic () =
  let fingerprint r =
    Spans.build r.Scenario.events
    |> List.map (fun o ->
           Printf.sprintf "%d:%s" o.Spans.span
             (String.concat ","
                (List.map
                   (fun (s : Spans.segment) -> Printf.sprintf "%s.%s=%d" s.phase s.label s.ticks)
                   (Spans.critical_path o))))
    |> String.concat ";"
  in
  let a = fingerprint (run (scenario ())) and b = fingerprint (run (scenario ())) in
  Alcotest.(check bool) "non-trivial" true (String.length a > 100);
  Alcotest.(check string) "replayed critical paths identical" a b

let test_json_roundtrip_stable () =
  (* span trees survive the artifact round trip: build -> JSONL ->
     parse -> build gives identical critical paths *)
  let r = run (scenario ~seed:23L ()) in
  let lines = List.map (fun (t, ev) -> Json.to_string (E.to_json ~time:t ev)) r.events in
  let events' =
    List.map
      (fun l ->
        match Result.bind (Json.of_string l) E.of_json with
        | Ok te -> te
        | Error e -> Alcotest.failf "roundtrip: %s" e)
      lines
  in
  Alcotest.(check bool) "event streams equal" true (events' = r.events)

(* Head sampling records a span whole or not at all, so every tree a
   sampled run rebuilds is exactly the full run's tree for that span. *)
let sampled_trees_prop =
  QCheck.Test.make ~name:"sampled span trees equal the full trace's" ~count:12
    QCheck.(pair (int_bound 1000) (int_bound 3))
    (fun (seed, strat) ->
      let strategy = List.nth [ None; Some "silent"; None; Some "equivocate" ] strat in
      let s = scenario ~seed:(Int64.of_int (seed + 1)) ~strategy () in
      let full = Spans.build (run ~level:Sbft_sim.Trace.On s).events in
      let sampled = Spans.build (run ~level:Sbft_sim.Trace.Sampled ~sample:0.35 s).events in
      sampled <> []
      && List.length sampled < List.length full
      && List.for_all
           (fun (op : Spans.op) ->
             List.exists (fun (o : Spans.op) -> o.span = op.span && o = op) full)
           sampled)

(* ------------------------------------------------------------------ *)
(* Aggregation. *)

let test_aggregate () =
  let r = run (scenario ()) in
  let rows = Spans.aggregate (Spans.build r.events) in
  Alcotest.(check bool) "write and read rows" true (List.length rows >= 2);
  List.iter
    (fun (row : Spans.agg_row) ->
      Alcotest.(check bool) "ordered percentiles" true (row.p50 <= row.p95 && row.p95 <= row.p99);
      Alcotest.(check (float 0.0001)) "full coverage" 1.0 row.min_coverage;
      let mean_total = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 row.breakdown in
      Alcotest.(check bool) "breakdown is substantial" true (mean_total > 0.0))
    rows

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "build: one write becomes phases and legs" `Quick test_build_tiny;
    Alcotest.test_case "critical path: boundaries of the fastest leg" `Quick
      test_critical_path_tiny;
    Alcotest.test_case "critical path: retry and stall windows" `Quick test_retry_and_stall;
    Alcotest.test_case "full run: every finished op fully attributed" `Quick
      test_full_run_coverage;
    Alcotest.test_case "critical paths deterministic across re-execution" `Quick
      test_critical_path_deterministic;
    Alcotest.test_case "events survive the JSON round trip" `Quick test_json_roundtrip_stable;
    QCheck_alcotest.to_alcotest sampled_trees_prop;
    Alcotest.test_case "aggregate: percentiles and breakdown" `Quick test_aggregate;
  ]
