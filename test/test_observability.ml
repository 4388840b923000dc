(* Operation spans, the stabilization bank's history feeder, run
   artifacts, and the forensic violation dump — the observability layer
   end to end. *)

module H = Sbft_spec.History
module Sim = Sbft_sim
module System = Sbft_core.System
module Config = Sbft_core.Config

let run_small ?sink () =
  let sys =
    System.create ~seed:21L ~trace_level:Sim.Trace.On (Config.make ~n:6 ~f:1 ~clients:2 ())
  in
  Option.iter (Sim.Trace.add_sink (Sim.Engine.trace (System.engine sys))) sink;
  System.write sys ~client:6 ~value:1
    ~k:(fun () ->
      System.read sys ~client:7
        ~k:(fun _ -> System.write sys ~client:7 ~value:2 ())
        ())
    ();
  System.quiesce sys;
  sys

let test_op_spans () =
  let sys = run_small () in
  let m = Sim.Engine.metrics (System.engine sys) in
  let expect ?(positive = false) name count =
    match Sim.Metrics.histogram m name with
    | None -> Alcotest.failf "histogram %s missing" name
    | Some h ->
        Alcotest.(check int) (name ^ " count") count h.count;
        if positive then Alcotest.(check bool) (name ^ " positive") true (h.min >= 1.0)
  in
  expect ~positive:true Sim.Metric_names.write_total_ticks 2;
  expect Sim.Metric_names.write_collect_ticks 2;
  expect Sim.Metric_names.write_commit_ticks 2;
  expect ~positive:true Sim.Metric_names.read_total_ticks 1;
  (* a pre-flushed read label legally makes the flush phase 0 ticks,
     so phases only assert presence, not positivity *)
  expect Sim.Metric_names.read_flush_ticks 1;
  expect Sim.Metric_names.read_decide_ticks 1;
  (* phases partition the total: collect + commit <= total per op, and
     the recorded sums agree to within rounding (same clock) *)
  let sum n = (Option.get (Sim.Metrics.histogram m n)).sum in
  Alcotest.(check bool) "phases bounded by total" true
    (sum Sim.Metric_names.write_collect_ticks +. sum Sim.Metric_names.write_commit_ticks
    <= sum Sim.Metric_names.write_total_ticks +. 0.5)

let test_trace_op_ids_match_history () =
  let events = ref [] in
  let sys = run_small ~sink:(fun ~time ev -> events := (time, ev) :: !events) () in
  let entries = List.rev !events in
  let history_ids =
    List.filter_map
      (function
        | H.Write { id; _ } -> Some id
        | H.Read { id; _ } -> Some id)
      (H.ops (System.history sys))
  in
  let traced_ids =
    List.sort_uniq compare (List.filter_map (fun (_, ev) -> Sim.Event.op_id ev) entries)
  in
  Alcotest.(check (list int)) "every history op appears in the trace"
    (List.sort compare history_ids) traced_ids;
  let count p = List.length (List.filter (fun (_, ev) -> p ev) entries) in
  Alcotest.(check int) "one op_started per op" 3
    (count (function Sim.Event.Op_started _ -> true | _ -> false));
  Alcotest.(check int) "one op_finished per op" 3
    (count (function Sim.Event.Op_finished _ -> true | _ -> false));
  Alcotest.(check bool) "quorums were traced" true
    (count (function Sim.Event.Quorum_formed _ -> true | _ -> false) > 0);
  Alcotest.(check bool) "label adoptions were traced" true
    (count (function Sim.Event.Label_adopted { ack = true; _ } -> true | _ -> false) > 0)

let test_hist_percentile () =
  let bounds = [| 1.0; 2.0; 4.0; 8.0 |] in
  (* counts: 1 in <=1, 0, 3 in <=4, 0, 1 overflow *)
  let counts = [| 1; 0; 3; 0; 1 |] in
  let pct p = Sbft_harness.Stats.hist_percentile ~bounds ~counts p in
  Alcotest.(check (float 0.0)) "p0 -> first bucket" 1.0 (pct 0.0);
  Alcotest.(check (float 0.0)) "p50 -> median bucket" 4.0 (pct 50.0);
  Alcotest.(check (float 0.0)) "p99 -> overflow clamps to last bound" 8.0 (pct 99.0);
  Alcotest.(check (float 0.0)) "empty -> 0" 0.0
    (Sbft_harness.Stats.hist_percentile ~bounds ~counts:[| 0; 0; 0; 0; 0 |] 50.0);
  (* the clamp is no longer silent: overflow ranks carry a saturation
     flag, in-range ranks do not *)
  let sat p = Sbft_harness.Stats.hist_percentile_sat ~bounds ~counts p in
  Alcotest.(check (pair (float 0.0) bool)) "p99 saturated" (8.0, true) (sat 99.0);
  Alcotest.(check (pair (float 0.0) bool)) "p50 not saturated" (4.0, false) (sat 50.0);
  Alcotest.(check (pair (float 0.0) bool)) "empty not saturated" (0.0, false)
    (Sbft_harness.Stats.hist_percentile_sat ~bounds ~counts:[| 0; 0; 0; 0; 0 |] 50.0);
  (* every sample past the last bound: saturated even at p50 *)
  Alcotest.(check (pair (float 0.0) bool)) "all-overflow histogram saturates p50" (8.0, true)
    (Sbft_harness.Stats.hist_percentile_sat ~bounds ~counts:[| 0; 0; 0; 0; 4 |] 50.0);
  (* and the metrics JSON marks which percentiles were clamped *)
  let hist : Sbft_sim.Metrics.hist_snapshot =
    { count = 5; sum = 30.0; min = 1.0; max = 16.0; bounds; counts; stream = None }
  in
  let j = Sbft_harness.Artifacts.histogram_json hist in
  (match Sbft_sim.Json.member "saturated" j with
  | Some (Sbft_sim.Json.List [ Sbft_sim.Json.String "p95"; Sbft_sim.Json.String "p99" ]) -> ()
  | Some other -> Alcotest.failf "saturated marker: %s" (Sbft_sim.Json.to_string other)
  | None -> Alcotest.fail "saturated marker missing");
  let hist_ok = { hist with counts = [| 1; 0; 3; 1; 0 |] } in
  Alcotest.(check bool) "no marker when nothing clamps" true
    (Sbft_sim.Json.member "saturated" (Sbft_harness.Artifacts.histogram_json hist_ok) = None)

let test_percentile_edges () =
  let xs = [| 5.0; 1.0; 3.0 |] in
  Alcotest.(check (float 0.0)) "p0 is the minimum" 1.0 (Sbft_harness.Stats.percentile xs 0.0);
  Alcotest.(check (float 0.0)) "p100 is the maximum" 5.0 (Sbft_harness.Stats.percentile xs 100.0);
  let s = Sbft_harness.Stats.summarize xs in
  Alcotest.(check (float 0.0)) "summary carries p99" 5.0 s.p99

(* The single-register feeder of the stabilization bank: completed ops
   in completion-time order, dirty = aborted read. *)
let test_probe () =
  let module Stab = Sbft_harness.Stabilization in
  let h : unit H.t = H.create () in
  (* a write before the fault, an abort during recovery, then clean
     reads; the slow read is invoked before the abort but completes
     last, so feeding in invocation order would revoke the clean
     streak it completes in *)
  let w = H.begin_write h ~client:6 ~value:1 ~time:10 in
  H.end_write h ~id:w ~time:30 ~ts:None;
  let slow = H.begin_read h ~client:8 ~time:110 in
  let r1 = H.begin_read h ~client:7 ~time:120 in
  H.end_read h ~id:r1 ~time:150 ~outcome:H.Abort;
  let r2 = H.begin_read h ~client:7 ~time:200 in
  H.end_read h ~id:r2 ~time:220 ~outcome:(H.Value 1);
  H.end_read h ~id:slow ~time:300 ~outcome:(H.Value 1);
  let b = Stab.of_history ~window:20 ~after:100 h in
  Stab.finalize b ~now:400;
  (* window [140,160) is the last dirty one; 3 clean windows follow *)
  Alcotest.(check (option int)) "tts from the fault" (Some 60) (Stab.time_to_stabilize b 0);
  Alcotest.(check (option int)) "fleet mirrors the one shard" (Some 60)
    (Stab.fleet_time_to_stabilize b);
  (* the JSON form parses back with the artifact's shape *)
  (match Sim.Json.of_string (Sim.Json.to_string (Stab.to_json b)) with
  | Ok j ->
      Alcotest.(check bool) "one shard, stabilized" true
        (Sim.Json.member "stabilized_shards" j = Some (Sim.Json.Int 1));
      Alcotest.(check bool) "fleet verdict in json" true
        (Option.bind (Sim.Json.member "fleet" j) (Sim.Json.member "time_to_stabilize")
        = Some (Sim.Json.Int 60))
  | Error e -> Alcotest.failf "stabilization json: %s" e);
  (* still aborting at the end of the run -> no stabilization claim *)
  let h2 : unit H.t = H.create () in
  let r = H.begin_read h2 ~client:7 ~time:120 in
  H.end_read h2 ~id:r ~time:150 ~outcome:H.Abort;
  let b2 = Stab.of_history ~window:20 ~after:100 h2 in
  Stab.finalize b2 ~now:170;
  Alcotest.(check (option int)) "still aborting" None (Stab.time_to_stabilize b2 0)

let test_artifacts_json () =
  let m = Sim.Metrics.create () in
  Sim.Metrics.incr m Sim.Metric_names.net_sent;
  Sim.Metrics.record m Sim.Metric_names.write_total_ticks 7.0;
  let j =
    Sbft_harness.Artifacts.metrics_json
      ~run:[ ("n", Sim.Json.Int 6) ]
      ~regularity:(12, 0) ~metrics:m
      ~per_node:[| (3, 2); (1, 1) |]
      ()
  in
  match Sim.Json.of_string (Sim.Json.to_string j) with
  | Error e -> Alcotest.failf "snapshot unparseable: %s" e
  | Ok j ->
      let member path =
        List.fold_left
          (fun acc k -> Option.bind acc (Sim.Json.member k))
          (Some j) path
      in
      Alcotest.(check bool) "counter present" true
        (member [ "counters"; Sim.Metric_names.net_sent ] = Some (Sim.Json.Int 1));
      Alcotest.(check bool) "histogram p50" true
        (member [ "histograms"; Sim.Metric_names.write_total_ticks; "p50" ]
        = Some (Sim.Json.Float 8.0));
      Alcotest.(check bool) "per_node" true
        (match member [ "per_node" ] with
        | Some (Sim.Json.List [ _; _ ]) -> true
        | _ -> false);
      Alcotest.(check bool) "regularity checked" true
        (member [ "regularity"; "checked" ] = Some (Sim.Json.Int 12))

let test_forensics_dump () =
  let events =
    [
      (12, Sim.Event.Op_started { op_id = 0; client = 6; kind = "write"; span = 0 });
      (14, Sim.Event.Fault_injected { desc = "corrupt s2" });
      (15, Sim.Event.Op_started { op_id = 7; client = 9; kind = "write"; span = 1 });
      (20, Sim.Event.Op_finished { op_id = 0; client = 6; kind = "write"; outcome = "ok"; ticks = 8; span = 0 });
      (40, Sim.Event.Op_started { op_id = 1; client = 7; kind = "read"; span = 2 });
      (50, Sim.Event.Op_finished { op_id = 1; client = 7; kind = "read"; outcome = "value"; ticks = 10; span = 2 });
      (51, Sim.Event.Fault_injected { desc = "corrupt s3" });
    ]
  in
  let h : unit H.t = H.create () in
  let w = H.begin_write h ~client:6 ~value:1 ~time:12 in
  H.end_write h ~id:w ~time:20 ~ts:None;
  let r = H.begin_read h ~client:7 ~time:40 in
  H.end_read h ~id:r ~time:50 ~outcome:(H.Value 99);
  let v =
    {
      Sbft_spec.Regularity.read_id = r;
      kind = `Unwritten;
      detail = "read 1 returned unwritten value 99";
      ops = [ r; w ];
    }
  in
  let s = Sbft_harness.Forensics.dump_string ~events ~history:h [ v ] in
  let has sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "names the violation" true (has "unwritten");
  Alcotest.(check bool) "happened-before edge" true (has "write 0 -> read 1");
  Alcotest.(check bool) "window includes the write's events" true (has "write start");
  Alcotest.(check bool) "non-op events inside the window kept" true (has "FAULT corrupt s2");
  Alcotest.(check bool) "unimplicated op filtered out" false (has "op=7");
  Alcotest.(check bool) "events after the window cut" false (has "corrupt s3")

let suite =
  [
    Alcotest.test_case "op spans -> histograms" `Quick test_op_spans;
    Alcotest.test_case "trace op ids match history" `Quick test_trace_op_ids_match_history;
    Alcotest.test_case "hist percentile" `Quick test_hist_percentile;
    Alcotest.test_case "percentile edges" `Quick test_percentile_edges;
    Alcotest.test_case "stabilization probe" `Quick test_probe;
    Alcotest.test_case "artifacts json" `Quick test_artifacts_json;
    Alcotest.test_case "forensics dump" `Quick test_forensics_dump;
  ]
