(* The trace dial.  Four contracts: (1) the sampled stream is a
   deterministic subsequence of the full stream for the same scenario
   and sample seed; (2) the dial never perturbs the simulation — same
   verdict and same virtual end-time at every level; (3) a sampled
   artifact holds whole span trees and replays cleanly; (4) violation
   forensics print the same dump at every level, re-running the
   scenario at [On] when the run traced less. *)

module Scenario = Sbft_harness.Scenario
module Trace = Sbft_sim.Trace
module Event = Sbft_sim.Event
module Engine = Sbft_sim.Engine
module System = Sbft_core.System
module Replay = Sbft_analysis.Replay
module Run_header = Sbft_analysis.Run_header
module J = Sbft_sim.Json

let small = { Scenario.default with clients = 2; ops_per_client = 6; seed = 19L }

let execute ?level ?sample s =
  match Scenario.execute ?level ?sample s with
  | Ok r -> r
  | Error e -> Alcotest.failf "execute: %s" e

let vt (r : Scenario.run) = Engine.now (System.engine r.sys)

let prop_sampled_subsequence =
  QCheck.Test.make ~name:"sampled stream is a subsequence of the full stream" ~count:25
    QCheck.(triple (int_bound 10_000) (int_range 2 8) (int_bound 100))
    (fun (seed, ops, pct) ->
      let sample = float_of_int pct /. 100.0 in
      let s = { small with seed = Int64.of_int (seed + 1); ops_per_client = ops } in
      let full = execute ~level:Trace.On s in
      let sampled = execute ~level:Trace.Sampled ~sample s in
      let v = Replay.compare_subsequence ~expected:sampled.events ~got:full.events in
      v.divergence = None
      && List.length sampled.events <= List.length full.events
      (* the dial must not perturb the run itself *)
      && Scenario.verdict_of_run sampled = Scenario.verdict_of_run full
      && vt sampled = vt full)

let test_off_emits_nothing () =
  let full = execute ~level:Trace.On small in
  let off = execute ~level:Trace.Off small in
  Alcotest.(check int) "no events at Off" 0 (List.length off.events);
  Alcotest.(check bool) "full stream nonempty" true (full.events <> []);
  Alcotest.(check bool) "same verdict" true
    (Scenario.verdict_of_run off = Scenario.verdict_of_run full);
  Alcotest.(check int) "same virtual end-time" (vt full) (vt off);
  Alcotest.(check bool) "fired thunks still counted at Off" true
    (Engine.events_fired (System.engine off.sys) > 0)

let test_sampled_artifact_whole_spans () =
  let s = { small with ops_per_client = 40; seed = 7L } in
  let r = execute ~level:Trace.Sampled ~sample:0.1 s in
  let path = Filename.temp_file "sbft_sampled" ".jsonl" in
  ignore (Scenario.record ~path ~fingerprint:"" ~note:"" ~trace_level:Trace.Sampled s r : string);
  let file = Sbft_analysis.Trace_file.load path in
  Sys.remove path;
  let h, events =
    match file with
    | Ok { header = Some h; events } -> (h, events)
    | Ok { header = None; _ } -> Alcotest.fail "artifact has no header"
    | Error e -> Alcotest.failf "load: %s" e
  in
  let ops = Sbft_analysis.Spans.build events in
  Alcotest.(check bool) "some spans sampled" true (ops <> []);
  Alcotest.(check bool) "not every span sampled" true (List.length ops < 2 * 40);
  List.iter
    (fun (op : Sbft_analysis.Spans.op) ->
      Alcotest.(check (float 0.0)) (Printf.sprintf "span %d coverage" op.span) 1.0
        (Sbft_analysis.Spans.coverage op))
    ops;
  match Scenario.replay h events with
  | Error e -> Alcotest.failf "replay: %s" e
  | Ok rep ->
      Alcotest.(check bool) "verdict reproduced" true rep.verdict_ok;
      Alcotest.(check bool) "zero divergence" true (rep.stream.divergence = None)

let test_sampled_ring_keeps_forensic_window () =
  (* At Sampled, sinks are thinned but the forensic window must still
     hold the full recent stream: that is the level's whole point. *)
  let r = execute ~level:Trace.Sampled ~sample:0.01 small in
  let window = Scenario.forensic_events ~level:Trace.Sampled small r in
  let full = execute ~level:Trace.On small in
  Alcotest.(check bool) "window saw more than the sinks" true
    (List.length window > List.length r.events);
  (* trace_cap (4096) exceeds this run's volume: window = full stream *)
  Alcotest.(check int) "window holds the whole run" (List.length full.events)
    (List.length window)

let test_forensic_window_replays_to_same_verdict () =
  let recorded = execute ~level:Trace.Sampled ~sample:0.05 small in
  let window = Scenario.forensic_events ~level:Trace.Sampled small recorded in
  (* round-trip through the artifact header, exactly as `sbftreg replay`
     would *)
  let h = Scenario.to_header ~trace_level:"sampled" small in
  let s' =
    match Scenario.of_header h with
    | Ok s -> s
    | Error e -> Alcotest.failf "of_header: %s" e
  in
  let replayed = execute ~level:Trace.On s' in
  Alcotest.(check bool) "window nonempty" true (window <> []);
  Alcotest.(check bool) "same verdict" true
    (Scenario.verdict_of_run recorded = Scenario.verdict_of_run replayed);
  let v = Replay.compare_subsequence ~expected:window ~got:replayed.events in
  Alcotest.(check bool) "forensic window contained in the replay" true (v.divergence = None)

let forensic_dump level s =
  let r = execute ~level s in
  Sbft_harness.Forensics.dump_string
    ~events:(Scenario.forensic_events ~level s r)
    ~history:(System.history r.sys) r.report.violations

let test_forensic_dump_every_level () =
  let h =
    match Sbft_analysis.Trace_file.load (Filename.concat "corpus" "theorem1-n5-stale.trace") with
    | Ok { header = Some h; _ } -> h
    | Ok { header = None; _ } -> Alcotest.fail "corpus entry has no header"
    | Error e -> Alcotest.failf "load: %s" e
  in
  let s =
    match Scenario.of_header h with Ok s -> s | Error e -> Alcotest.failf "of_header: %s" e
  in
  let on = forensic_dump Trace.On s in
  let contains sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length on && (String.sub on i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "the dump shows the causal cone" true (contains "causal cone of read 11");
  Alcotest.(check string) "off" on (forensic_dump Trace.Off s);
  Alcotest.(check string) "sampled" on (forensic_dump Trace.Sampled s)

let test_forensic_events_keep_trace_cap () =
  let full = execute ~level:Trace.On small in
  let cap = 50 in
  let tail = List.filteri (fun i _ -> i >= List.length full.events - cap) full.events in
  let s = { small with trace_cap = cap } in
  List.iter
    (fun level ->
      let r = execute ~level s in
      let got = Scenario.forensic_events ~level s r in
      Alcotest.(check int) (Trace.level_to_string level ^ ": cap events") cap (List.length got);
      Alcotest.(check bool) (Trace.level_to_string level ^ ": the on stream's tail") true
        (got = tail))
    [ Trace.Off; Trace.Sampled; Trace.On ]

let test_compare_for_level_dispatch () =
  let e t d = (t, Event.Note { detail = d }) in
  let full = [ e 1 "a"; e 2 "b"; e 3 "c" ] in
  let thinned = [ e 1 "a"; e 3 "c" ] in
  (* sampled headers get containment semantics *)
  let v = Replay.compare_for_level ~trace_level:"sampled" ~expected:thinned ~got:full in
  Alcotest.(check bool) "sampled: subsequence accepted" true (v.divergence = None);
  (* everything else stays exact *)
  let v = Replay.compare_for_level ~trace_level:"on" ~expected:thinned ~got:full in
  Alcotest.(check bool) "on: gap is a divergence" true (v.divergence <> None);
  (* out-of-order recorded events must still fail containment *)
  let v =
    Replay.compare_for_level ~trace_level:"sampled" ~expected:[ e 3 "c"; e 1 "a" ] ~got:full
  in
  Alcotest.(check bool) "sampled: reordering diverges" true (v.divergence <> None)

let test_header_trace_level_roundtrip () =
  let h = Scenario.to_header ~trace_level:"sampled" small in
  (match Run_header.of_json (Run_header.to_json h) with
  | Ok h' -> Alcotest.(check string) "roundtrip" "sampled" h'.Run_header.trace_level
  | Error e -> Alcotest.failf "of_json: %s" e);
  (* pre-PR6 artifacts have no trace_level member and must default to
     the exact-compare level *)
  let strip = List.filter (fun (k, _) -> k <> "trace_level") in
  let stripped =
    match Run_header.to_json h with
    | J.Obj top ->
        J.Obj
          (List.map
             (function "header", J.Obj fields -> ("header", J.Obj (strip fields)) | kv -> kv)
             top)
    | j -> j
  in
  match Run_header.of_json stripped with
  | Ok h' -> Alcotest.(check string) "old artifacts default to on" "on" h'.Run_header.trace_level
  | Error e -> Alcotest.failf "of_json (stripped): %s" e

let suite =
  [
    QCheck_alcotest.to_alcotest prop_sampled_subsequence;
    Alcotest.test_case "off emits nothing, run unchanged" `Quick test_off_emits_nothing;
    Alcotest.test_case "sampled artifact: whole spans, clean replay" `Quick
      test_sampled_artifact_whole_spans;
    Alcotest.test_case "sampled ring keeps the forensic window" `Quick
      test_sampled_ring_keeps_forensic_window;
    Alcotest.test_case "forensic window replays to same verdict" `Quick
      test_forensic_window_replays_to_same_verdict;
    Alcotest.test_case "forensic dump identical at off, sampled and on" `Quick
      test_forensic_dump_every_level;
    Alcotest.test_case "forensic events: the on stream's last trace_cap" `Quick
      test_forensic_events_keep_trace_cap;
    Alcotest.test_case "compare_for_level dispatch" `Quick test_compare_for_level_dispatch;
    Alcotest.test_case "header trace_level roundtrip + default" `Quick
      test_header_trace_level_roundtrip;
  ]
