(* Span assembly, critical-path extraction and cross-run trends. *)

module E = Sbft_sim.Event
module Json = Sbft_sim.Json
module Spans = Sbft_analysis.Spans
module Trends = Sbft_analysis.Trends
module Diff = Sbft_analysis.Diff
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

let subtree_prop =
  QCheck.Test.make ~name:"sampled span trees are subtrees of the full trace's" ~count:12
    QCheck.(pair (int_bound 1000) (int_bound 3))
    (fun (seed, strat) ->
      let strategy = List.nth [ None; Some "silent"; None; Some "equivocate" ] strat in
      let s = scenario ~seed:(Int64.of_int (seed + 1)) ~strategy () in
      let full = run ~level:Sbft_sim.Trace.On s in
      let sampled = run ~level:Sbft_sim.Trace.Sampled ~sample:0.35 s in
      let full_nodes = Spans.nodes (Spans.build full.events) in
      let sampled_nodes = Spans.nodes (Spans.build sampled.events) in
      List.for_all (fun n -> List.mem n full_nodes) sampled_nodes)

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
(* Trends. *)

let metrics_json puts ticks =
  Json.Obj
    [
      ("run", Json.Obj [ ("ops", Json.Int puts) ]);
      ("kv", Json.Obj [ ("put_ticks", Json.Float ticks); ("name", Json.String "skipped") ]);
      ("nodes", Json.List [ Json.Int 1; Json.Int 2 ]);
    ]

let test_trends_extract () =
  let run = Trends.of_json ~source:"a" (metrics_json 100 25.0) in
  Alcotest.(check (list (pair string (float 0.0001))))
    "numeric leaves, dotted paths, lists and strings skipped"
    [ ("run.ops", 100.0); ("kv.put_ticks", 25.0) ]
    run.metrics

let tol = Result.get_ok (Diff.tolerance 0.3)

let drift prev cur =
  match Trends.latest_drift ~tolerance:tol [ prev; cur ] with
  | Some (_, _, rep) -> rep
  | None -> Alcotest.fail "expected a comparison"

let test_trends_drift () =
  let prev = Trends.of_json ~source:"a" (metrics_json 100 25.0) in
  (* 10% drift on ops: under a 30% tolerance *)
  let cur = Trends.of_json ~source:"b" (metrics_json 110 25.0) in
  Alcotest.(check int) "small drift passes" 0 (List.length (Diff.drifted (drift prev cur)));
  (* 2x on put_ticks: flags *)
  let cur = Trends.of_json ~source:"c" (metrics_json 100 50.0) in
  (match Diff.drifted (drift prev cur) with
  | [ d ] ->
      Alcotest.(check string) "metric" "kv.put_ticks" d.path;
      Alcotest.(check bool) "rel = 50%" true (Float.abs (d.rel -. 0.5) < 1e-9)
  | ds -> Alcotest.failf "expected one drift, got %d" (List.length ds));
  (* a metric only in cur is a NEW row: printed, but not drift *)
  let cur =
    { Trends.source = "d"; label = ""; metrics = [ ("run.ops", 100.0); ("new.thing", 9.0) ] }
  in
  let rep = drift prev cur in
  Alcotest.(check int) "new metrics do not fail" 0 (List.length (Diff.drifted rep));
  Alcotest.(check (list string)) "new and gone rows kept" [ "GONE"; "NEW" ]
    (List.filter_map
       (fun (r : Diff.row) ->
         if r.path = "new.thing" || r.path = "kv.put_ticks" then Some (Diff.label r) else None)
       rep.rows)

let test_trends_db () =
  let db = Filename.temp_file "sbft_trends" ".jsonl" in
  Sys.remove db;
  let load db = match Trends.load_db db with Ok runs -> runs | Error e -> Alcotest.fail e in
  let append run = match Trends.append ~db run with Ok () -> () | Error e -> Alcotest.fail e in
  Alcotest.(check int) "missing db is empty" 0 (List.length (load db));
  let r1 = Trends.of_json ~source:"r1" (metrics_json 100 25.0) in
  append r1;
  append (Trends.of_json ~source:"r2" (metrics_json 100 60.0));
  (match load db with
  | [ r1'; _ ] -> Alcotest.(check bool) "run round-trips" true (r1 = r1')
  | runs -> Alcotest.failf "expected two runs, got %d" (List.length runs));
  (match Trends.latest_drift ~tolerance:tol (load db) with
  | Some (prev, cur, rep) -> (
      Alcotest.(check string) "prev" "r1" prev.Trends.source;
      Alcotest.(check string) "cur" "r2" cur.Trends.source;
      match Diff.drifted rep with
      | [ d ] -> Alcotest.(check string) "drifted metric" "kv.put_ticks" d.path
      | ds -> Alcotest.failf "expected one drift, got %d" (List.length ds))
  | None -> Alcotest.fail "expected a comparison");
  Sys.remove db;
  Alcotest.(check bool) "unwritable db is an error" true
    (Result.is_error (Trends.append ~db:(Filename.concat db "runs.jsonl") r1))

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
    QCheck_alcotest.to_alcotest subtree_prop;
    Alcotest.test_case "aggregate: percentiles and breakdown" `Quick test_aggregate;
    Alcotest.test_case "trends: numeric-leaf extraction" `Quick test_trends_extract;
    Alcotest.test_case "trends: drift tolerance and growth" `Quick test_trends_drift;
    Alcotest.test_case "trends: append-only run database" `Quick test_trends_db;
  ]
