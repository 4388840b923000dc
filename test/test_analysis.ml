(* The trace-analysis layer: event JSON round trips, happened-before
   reconstruction (program + message edges, causal cones, renderings),
   artifact diffing and convergence telemetry. *)

module E = Sbft_sim.Event
module J = Sbft_sim.Json
module Causality = Sbft_analysis.Causality
module Diff = Sbft_analysis.Diff

(* ------------------------------------------------------------------ *)
(* Event.of_json *)

let all_variants : E.t list =
  [
    E.Msg_sent { src = 1; dst = 2; kind = "write_req"; span = 4 };
    E.Msg_sent { src = 1; dst = 2; kind = "write_req"; span = E.no_span };
    E.Msg_delivered { src = 1; dst = 2; kind = "write_req"; span = 4 };
    E.Msg_dropped { src = 1; dst = 2; kind = "reply"; reason = "crashed"; span = E.no_span };
    E.Retransmit { label = 7 };
    E.Ack_roundtrip { label = 7; ticks = 12 };
    E.Quorum_formed { op_id = 3; client = 6; phase = "collect"; size = 5; span = 4 };
    E.Label_adopted { server = 2; writer = 6; ack = true };
    E.Epoch_changed { node = 6; epoch = 2; what = "read_label" };
    E.Fault_injected { desc = "corrupt s1" };
    E.Op_started { op_id = 3; client = 6; kind = "write"; span = 4 };
    E.Op_phase { op_id = 3; client = 6; phase = "collect"; ticks = 9; span = 4 };
    E.Op_finished { op_id = 3; client = 6; kind = "write"; outcome = "ok"; ticks = 20; span = 4 };
    E.Violation { op_id = 3; kind = "stale"; detail = "read 3 returned overwritten value" };
    E.Server_state { server = 1; value = 9; ts = "(3,{1,2})@w0"; sting = 3; hist_len = 2; readers = 1 };
    E.Span_tag { span = 4; tag = "shard"; v = 11 };
  ]

let test_event_json_roundtrip () =
  List.iteri
    (fun i ev ->
      match E.of_json (E.to_json ~time:(100 + i) ev) with
      | Ok (t, ev') ->
          Alcotest.(check int) (E.to_string ev ^ " time") (100 + i) t;
          Alcotest.(check bool) (E.to_string ev ^ " round trip") true (ev = ev')
      | Error e -> Alcotest.failf "%s: %s" (E.to_string ev) e)
    all_variants

let test_event_json_errors () =
  let err j = match E.of_json j with Error _ -> () | Ok _ -> Alcotest.fail (J.to_string j) in
  err (J.Obj [ ("t", J.Int 1); ("ev", J.String "no_such_event") ]);
  err (J.Obj [ ("ev", J.String "note"); ("detail", J.String "missing time") ]);
  err (J.Obj [ ("t", J.Int 1); ("ev", J.String "msg_sent"); ("src", J.Int 1) ]);
  err (J.String "not an object")

(* ------------------------------------------------------------------ *)
(* causality *)

(* two clients, one server: c10 sends to s0, s0 replies; c11 sends to
   s0 and the message is dropped *)
let tiny_trace =
  [
    (1, E.Op_started { op_id = 0; client = 10; kind = "write"; span = 0 });
    (1, E.Msg_sent { src = 10; dst = 0; kind = "write_req"; span = 0 });
    (2, E.Msg_sent { src = 11; dst = 0; kind = "read"; span = 1 });
    (3, E.Msg_delivered { src = 10; dst = 0; kind = "write_req"; span = 0 });
    (3, E.Msg_sent { src = 0; dst = 10; kind = "write_ack"; span = 0 });
    (4, E.Msg_dropped { src = 11; dst = 0; kind = "read"; reason = "crashed"; span = 1 });
    (5, E.Msg_delivered { src = 0; dst = 10; kind = "write_ack"; span = 0 });
    (5, E.Op_finished { op_id = 0; client = 10; kind = "write"; outcome = "ok"; ticks = 4; span = 0 });
    (6, E.Fault_injected { desc = "no lifeline" });
  ]

let edge_count g kind =
  List.length (List.filter (fun (e : Causality.edge) -> e.kind = kind) g.Causality.edges)

let test_build_edges () =
  let g = Causality.build tiny_trace in
  Alcotest.(check int) "nodes" 9 (Array.length g.nodes);
  (* lifelines: c10 has 4 events -> 3 edges, s0 has 3 -> 2, c11 has 1 -> 0 *)
  Alcotest.(check int) "program edges" 5 (edge_count g Causality.Program);
  (* three matched sends: write_req, read (dropped counts), write_ack *)
  Alcotest.(check int) "message edges" 3 (edge_count g Causality.Message);
  Alcotest.(check (list int)) "lifelines" [ 0; 10; 11 ] (Causality.locations g);
  Alcotest.(check (list int)) "ops" [ 0 ] (Causality.op_ids g)

let test_fifo_matching () =
  (* two sends on the same channel: deliveries match in order *)
  let g =
    Causality.build
      [
        (1, E.Msg_sent { src = 1; dst = 2; kind = "m"; span = E.no_span });
        (2, E.Msg_sent { src = 1; dst = 2; kind = "m"; span = E.no_span });
        (3, E.Msg_delivered { src = 1; dst = 2; kind = "m"; span = E.no_span });
        (4, E.Msg_delivered { src = 1; dst = 2; kind = "m"; span = E.no_span });
      ]
  in
  let msg =
    List.filter (fun (e : Causality.edge) -> e.kind = Causality.Message) g.edges
    |> List.map (fun (e : Causality.edge) -> (e.src, e.dst))
  in
  Alcotest.(check (list (pair int int))) "fifo" [ (0, 2); (1, 3) ] msg;
  (* an injected message (delivery with no send) matches nothing *)
  let g2 = Causality.build [ (1, E.Msg_delivered { src = 5; dst = 6; kind = "ghost"; span = E.no_span }) ] in
  Alcotest.(check int) "injected unmatched" 0 (edge_count g2 Causality.Message)

let test_cone () =
  let g = Causality.build tiny_trace in
  let cone = Causality.cone g ~op_id:0 in
  (* everything on c10/s0 is causally tied to op 0; c11's send and the
     drop join via s0's program order predecessors/successors, but the
     lone fault row does not *)
  Alcotest.(check bool) "cone smaller than trace" true
    (Array.length cone.nodes < Array.length g.nodes);
  Alcotest.(check bool) "cone non-empty" true (Array.length cone.nodes > 0);
  Array.iter
    (fun (nd : Causality.node) ->
      match nd.ev with
      | E.Fault_injected _ -> Alcotest.fail "fault row is causally unrelated"
      | _ -> ())
    cone.nodes;
  (* edges were renumbered consistently *)
  List.iter
    (fun (e : Causality.edge) ->
      Alcotest.(check bool) "edge in range" true
        (e.src < Array.length cone.nodes && e.dst < Array.length cone.nodes))
    cone.edges;
  let empty = Causality.cone g ~op_id:999 in
  Alcotest.(check int) "unknown op: empty cone" 0 (Array.length empty.nodes)

let test_renderings () =
  let g = Causality.build tiny_trace in
  let name i = if i < 10 then Printf.sprintf "s%d" i else Printf.sprintf "c%d" i in
  let dot = Causality.to_dot ~name g in
  Alcotest.(check bool) "dot digraph" true (String.length dot > 0 && String.sub dot 0 7 = "digraph");
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "dot has dashed message edges" true (contains dot "style=dashed");
  Alcotest.(check bool) "dot names lifelines" true (contains dot "@c10");
  let ascii = Causality.ascii ~name g in
  Alcotest.(check bool) "ascii headers" true
    (contains ascii "s0" && contains ascii "c10" && contains ascii "c11");
  Alcotest.(check bool) "ascii event markers" true (contains ascii "*");
  Alcotest.(check bool) "ascii message arrows" true (contains ascii "+--");
  (* one row per event *)
  let rows = List.length (List.filter (fun l -> l <> "") (String.split_on_char '\n' ascii)) in
  Alcotest.(check int) "ascii rows" (Array.length g.nodes + 1) rows

(* ------------------------------------------------------------------ *)
(* diff *)

let artifact ?(sent = 100) ?(violations = 0) ?(p95 = 40.0) () =
  J.Obj
    [
      ("counters", J.Obj [ ("net.sent", J.Int sent) ]);
      ("histograms", J.Obj [ ("op.read.total_ticks", J.Obj [ ("p95", J.Float p95); ("bounds", J.List []) ]) ]);
      ("regularity", J.Obj [ ("checked", J.Int 20); ("violations", J.Int violations) ]);
      ("per_node", J.List [ J.Obj [ ("id", J.Int 0); ("sent", J.Int 50) ] ]);
    ]

let tol t = Result.get_ok (Diff.tolerance t)

let test_diff_verdicts () =
  let same = Diff.compare (artifact ()) (artifact ()) in
  Alcotest.(check bool) "identical ok" true (same.worst = Diff.Ok);
  let near = Diff.compare (artifact ()) (artifact ~sent:110 ()) in
  Alcotest.(check bool) "10% within tolerance" true (near.worst = Diff.Ok);
  let warn = Diff.compare (artifact ()) (artifact ~sent:140 ()) in
  Alcotest.(check bool) "40% warns" true (warn.worst = Diff.Warn);
  let fail = Diff.compare (artifact ()) (artifact ~sent:500 ()) in
  Alcotest.(check bool) "5x fails" true (fail.worst = Diff.Fail);
  (* violations are exact: +1 fails even though relative diff is huge tolerance-wise *)
  let viol = Diff.compare (artifact ()) (artifact ~violations:1 ()) in
  let row = List.find (fun (r : Diff.row) -> r.path = "regularity.violations") viol.rows in
  Alcotest.(check bool) "one extra violation fails" true (row.verdict = Diff.Fail);
  (* tolerance is adjustable, but only to a finite non-negative value *)
  let strict = Diff.compare ~tolerance:(tol 0.01) (artifact ()) (artifact ~sent:110 ()) in
  Alcotest.(check bool) "strict tolerance flags 10%" true (strict.worst <> Diff.Ok);
  List.iter
    (fun t ->
      Alcotest.(check bool) (Printf.sprintf "tolerance %g rejected" t) true
        (Result.is_error (Diff.tolerance t)))
    [ Float.nan; Float.infinity; -0.1 ]

let test_diff_scope () =
  let rep = Diff.compare (artifact ()) (artifact ()) in
  let paths = List.map (fun (r : Diff.row) -> r.path) rep.rows in
  Alcotest.(check bool) "histogram p95 compared" true (List.mem "histograms.op.read.total_ticks.p95" paths);
  (* per-node rows and histogram bounds arrays are shapes, not scalars *)
  Alcotest.(check bool) "per_node not compared" true
    (not (List.exists (fun p -> String.length p >= 8 && String.sub p 0 8 = "per_node") paths));
  (* a key on one side only is a warning, not a crash, and is never dropped *)
  let missing = Diff.compare (artifact ()) (J.Obj [ ("counters", J.Obj []) ]) in
  Alcotest.(check bool) "one-sided keys warn" true (missing.worst = Diff.Warn);
  Alcotest.(check (list string)) "every baseline path is a GONE row"
    (List.map (fun _ -> "GONE") rep.rows)
    (List.map Diff.label missing.rows);
  let added =
    Diff.compare_flat ~tolerance:(tol 0.2) [ ("b", 1.0) ] [ ("a", 1.0); ("b", 1.0); ("c", 2.0) ]
  in
  Alcotest.(check (list (pair string string))) "merge walk: sorted, NEW on either end"
    [ ("a", "NEW"); ("b", "ok"); ("c", "NEW") ]
    (List.map (fun (r : Diff.row) -> (r.path, Diff.label r)) added.rows)

(* ------------------------------------------------------------------ *)
(* bench ratio verdict *)

module B = Sbft_harness.Benchmarks

let test_bench_verdict () =
  let row ?(name = "series on vs off") budget samples = { B.name; budget; samples } in
  let cap = row (B.Cap 5.0) in
  Alcotest.(check bool) "one round of seven over 5% passes" false
    (B.over_budget (cap [| 1.0; 2.0; 5.1; 0.5; 3.0; -1.0; 4.9 |]));
  Alcotest.(check bool) "six rounds of seven over 5% fail" true
    (B.over_budget (cap [| 5.1; 6.0; 1.0; 7.5; 5.2; 9.0; 5.01 |]));
  Alcotest.(check bool) "series overhead over budget" true
    (B.over_budget (cap (Array.make 7 5.1)));
  Alcotest.(check bool) "loadgen overhead over budget" true
    (B.over_budget (row ~name:"open vs closed loop" (B.Cap 5.0) (Array.make 7 5.1)));
  let floor = row ~name:"sweep vs scan" (B.Floor 25.0) in
  Alcotest.(check bool) "speedup with q3 on its floor passes" false
    (B.over_budget (floor [| 20.0; 21.0; 22.0; 23.0; 24.0; 25.0; 40.0 |]));
  Alcotest.(check bool) "speedup with q3 under its floor fails" true
    (B.over_budget (floor [| 20.0; 21.0; 22.0; 23.0; 24.0; 24.9; 40.0 |]));
  let r = row ~name:"open vs closed loop" (B.Cap 5.0) [| 3.0; -1.0; 4.5; 0.25; 2.0; 7.0; 1.5 |] in
  let p = Sbft_harness.Stats.percentile r.samples in
  Alcotest.(check (list (float 0.0))) "quartiles of seven are the 2nd, 4th and 6th"
    [ 0.25; 2.0; 4.5 ] [ p 25.0; p 50.0; p 75.0 ];
  Alcotest.(check string) "printed median and quartiles are Stats.percentile's"
    (Printf.sprintf "%-20s median %.2f%% [%.2f, %.2f]  q1 <= 5%%  ok" r.name (p 50.0) (p 25.0)
       (p 75.0))
    (Format.asprintf "%a" B.pp_row r)

(* ------------------------------------------------------------------ *)
(* telemetry *)

let test_telemetry () =
  let sys =
    Sbft_core.System.create ~seed:5L (Sbft_core.Config.make ~n:6 ~f:1 ~clients:2 ())
  in
  let tel = Sbft_harness.Telemetry.attach ~snapshot_every:20 sys in
  let reg = Sbft_harness.Register.core sys in
  let _ =
    Sbft_harness.Workload.run
      ~spec:{ Sbft_harness.Workload.default with ops_per_client = 6 }
      reg
  in
  let snaps = Sbft_harness.Telemetry.snapshots tel in
  Alcotest.(check bool) "snapshots taken" true (List.length snaps >= 3);
  List.iter
    (fun (s : Sbft_harness.Telemetry.snapshot) ->
      Alcotest.(check bool) "occupancy in (0,1]" true (s.occupancy > 0.0 && s.occupancy <= 1.0);
      Alcotest.(check bool) "labels >= 1" true (s.distinct_labels >= 1))
    snaps;
  let history = Sbft_core.System.history sys in
  let j = Sbft_harness.Telemetry.to_json tel ~history () in
  let get path =
    List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some j) path
  in
  let int_at path =
    match get path with Some (J.Int i) -> i | _ -> Alcotest.failf "missing %s" (String.concat "." path)
  in
  Alcotest.(check int) "summary reads = history reads" (reg.completed_reads ())
    (int_at [ "summary"; "total_reads" ]);
  Alcotest.(check int) "summary writes = history writes" (reg.completed_writes ())
    (int_at [ "summary"; "total_writes" ]);
  Alcotest.(check int) "snapshot count" (List.length snaps) (int_at [ "summary"; "snapshots" ]);
  (* the series all share one length *)
  let series_len name =
    match get [ "series"; name ] with
    | Some (J.List l) -> List.length l
    | _ -> Alcotest.failf "series %s missing" name
  in
  let w = series_len "t" in
  Alcotest.(check bool) "windows > 1" true (w > 1);
  List.iter
    (fun s -> Alcotest.(check int) ("series " ^ s) w (series_len s))
    [ "reads"; "aborts"; "abort_rate"; "writes"; "stale_reads"; "label_occupancy" ];
  (* snapshots emit Server_state events when tracing is on *)
  let traced =
    Sbft_core.System.create ~seed:5L ~trace_level:Sbft_sim.Trace.On
      (Sbft_core.Config.make ~n:6 ~f:1 ~clients:2 ())
  in
  let snapshots_in_trace = ref 0 in
  Sbft_sim.Trace.add_sink (Sbft_sim.Engine.trace (Sbft_core.System.engine traced))
    (fun ~time:_ ev -> match ev with E.Server_state _ -> incr snapshots_in_trace | _ -> ());
  let _ = Sbft_harness.Telemetry.attach ~snapshot_every:20 traced in
  let reg2 = Sbft_harness.Register.core traced in
  let _ =
    Sbft_harness.Workload.run
      ~spec:{ Sbft_harness.Workload.default with ops_per_client = 6 }
      reg2
  in
  Alcotest.(check bool) "Server_state events in trace" true (!snapshots_in_trace >= 6)

let test_telemetry_disabled () =
  let sys =
    Sbft_core.System.create ~seed:5L (Sbft_core.Config.make ~n:6 ~f:1 ~clients:2 ())
  in
  let tel = Sbft_harness.Telemetry.attach ~snapshot_every:0 sys in
  let reg = Sbft_harness.Register.core sys in
  let _ =
    Sbft_harness.Workload.run
      ~spec:{ Sbft_harness.Workload.default with ops_per_client = 3 }
      reg
  in
  Alcotest.(check int) "no snapshots" 0
    (List.length (Sbft_harness.Telemetry.snapshots tel));
  (* the history-derived series still exist *)
  match J.member "series" (Sbft_harness.Telemetry.to_json tel ~history:(Sbft_core.System.history sys) ()) with
  | Some (J.Obj _) -> ()
  | _ -> Alcotest.fail "series missing when snapshots disabled"

let suite =
  [
    Alcotest.test_case "every event variant round trips via JSON" `Quick test_event_json_roundtrip;
    Alcotest.test_case "event parse errors" `Quick test_event_json_errors;
    Alcotest.test_case "happened-before edges" `Quick test_build_edges;
    Alcotest.test_case "FIFO message matching" `Quick test_fifo_matching;
    Alcotest.test_case "causal cone slicing" `Quick test_cone;
    Alcotest.test_case "DOT and ASCII renderings" `Quick test_renderings;
    Alcotest.test_case "diff verdict thresholds" `Quick test_diff_verdicts;
    Alcotest.test_case "diff comparable scope" `Quick test_diff_scope;
    Alcotest.test_case "bench ratio verdict" `Quick test_bench_verdict;
    Alcotest.test_case "telemetry snapshots and series" `Quick test_telemetry;
    Alcotest.test_case "telemetry disabled" `Quick test_telemetry_disabled;
  ]
