(* Deterministic replay: record a run in memory, re-execute it from
   its own header, and assert the event streams agree bit-for-bit —
   plus the mutation test that a changed seed IS detected, so "zero
   divergence" cannot pass vacuously. *)

module Scenario = Sbft_harness.Scenario
module Run_header = Sbft_analysis.Run_header
module Trace_file = Sbft_analysis.Trace_file
module Replay = Sbft_analysis.Replay

let small =
  { Scenario.default with clients = 2; ops_per_client = 4; snapshot_every = 25; seed = 13L }

let execute s =
  match Scenario.execute s with
  | Ok r -> r
  | Error e -> Alcotest.failf "execute: %s" e

let of_header h =
  match Scenario.of_header h with
  | Ok s -> s
  | Error e -> Alcotest.failf "of_header: %s" e

let test_record_replay_zero_divergence () =
  let recorded = execute small in
  let replayed = execute (of_header (Scenario.to_header small)) in
  let v = Replay.compare_for_level ~trace_level:"on" ~expected:recorded.events ~got:replayed.events in
  Alcotest.(check bool) "has events" true (List.length recorded.events > 100);
  Alcotest.(check bool) "zero divergence" true (v.divergence = None);
  Alcotest.(check int) "all matched" (List.length recorded.events) v.matched

let test_seed_mutation_detected () =
  let a = execute small in
  let b = execute { small with seed = 14L } in
  match (Replay.compare_for_level ~trace_level:"on" ~expected:a.events ~got:b.events).divergence with
  | None -> Alcotest.fail "different seeds must diverge"
  | Some d -> Alcotest.(check bool) "diverges early" true (d.index < List.length a.events)

let test_workload_mutation_detected () =
  let a = execute small in
  let b = execute { small with write_ratio = 0.7 } in
  Alcotest.(check bool) "different mix diverges" true
    ((Replay.compare_for_level ~trace_level:"on" ~expected:a.events ~got:b.events).divergence <> None)

let test_corrupt_run_replays () =
  (* determinism must survive fault injection too: corruption draws
     from the fault RNG, which is itself seeded from the master *)
  let s = { small with corrupt = true; strategy = Some "stale-replay" } in
  let a = execute s and b = execute s in
  let v = Replay.compare_for_level ~trace_level:"on" ~expected:a.events ~got:b.events in
  Alcotest.(check bool) "corrupt run replays" true (v.divergence = None)

let test_unknown_strategy_is_error () =
  match Scenario.execute { small with strategy = Some "no-such-strategy" } with
  | Error msg -> Alcotest.(check bool) "names known" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "unknown strategy must be an error"

let test_header_roundtrip () =
  let h =
    Scenario.to_header ~fingerprint:"abc123" { small with strategy = Some "garbage"; corrupt = true }
  in
  (match Run_header.of_json (Run_header.to_json h) with
  | Ok h' -> Alcotest.(check bool) "header json round trip" true (h = h')
  | Error e -> Alcotest.failf "of_json: %s" e);
  let s' = of_header h in
  Alcotest.(check bool) "scenario round trip" true
    (s' = { small with strategy = Some "garbage"; corrupt = true })

let test_trace_file_roundtrip () =
  let r = execute small in
  let header = Scenario.to_header ~fingerprint:"deadbeef" small in
  let path = Filename.temp_file "sbft_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_file.save ~path ~header r.events;
      match Trace_file.load path with
      | Error e -> Alcotest.failf "load: %s" e
      | Ok t ->
          Alcotest.(check bool) "header survives" true (t.header = Some header);
          Alcotest.(check bool) "events survive" true (t.events = r.events))

let test_trace_file_errors () =
  let check_err lines msg =
    match Trace_file.parse_lines lines with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected parse failure: %s" msg
  in
  check_err [ "{" ] "malformed json";
  check_err [ {|{"t":1,"ev":"nope"}|} ] "unknown event";
  check_err
    [ {|{"t":1,"ev":"fault_injected","desc":"x"}|}; {|{"header":{}}|} ]
    "header after events";
  (* blank lines are tolerated, order is preserved *)
  match Trace_file.parse_lines [ ""; {|{"t":3,"ev":"fault_injected","desc":"x"}|}; "" ] with
  | Ok { header = None; events = [ (3, Sbft_sim.Event.Fault_injected { desc = "x" }) ] } -> ()
  | Ok _ -> Alcotest.fail "unexpected parse"
  | Error e -> Alcotest.failf "parse: %s" e

let test_fingerprint_mismatch () =
  let h = Scenario.to_header ~fingerprint:"aaa" small in
  Alcotest.(check bool) "differs" true (Replay.fingerprint_mismatch ~header:h ~fingerprint:"bbb");
  Alcotest.(check bool) "same ok" false (Replay.fingerprint_mismatch ~header:h ~fingerprint:"aaa");
  Alcotest.(check bool) "unknown ok" false (Replay.fingerprint_mismatch ~header:h ~fingerprint:"");
  let anon = Scenario.to_header small in
  Alcotest.(check bool) "unrecorded ok" false
    (Replay.fingerprint_mismatch ~header:anon ~fingerprint:"bbb")

let test_compare_streams_shapes () =
  let ev t d = (t, Sbft_sim.Event.Fault_injected { desc = d }) in
  let v = Replay.compare_for_level ~trace_level:"on" ~expected:[ ev 1 "a"; ev 2 "b" ] ~got:[ ev 1 "a" ] in
  (match v.divergence with
  | Some { index = 1; expected = Some _; got = None } -> ()
  | _ -> Alcotest.fail "missing tail should diverge at 1");
  let v = Replay.compare_for_level ~trace_level:"on" ~expected:[ ev 1 "a" ] ~got:[ ev 1 "a"; ev 2 "b" ] in
  (match v.divergence with
  | Some { index = 1; expected = None; got = Some _ } -> ()
  | _ -> Alcotest.fail "extra tail should diverge at 1");
  let v = Replay.compare_for_level ~trace_level:"on" ~expected:[] ~got:[] in
  Alcotest.(check bool) "empty ok" true (v.divergence = None && v.matched = 0)

let suite =
  [
    Alcotest.test_case "record then replay: zero divergence" `Quick
      test_record_replay_zero_divergence;
    Alcotest.test_case "seed mutation is detected" `Quick test_seed_mutation_detected;
    Alcotest.test_case "workload mutation is detected" `Quick test_workload_mutation_detected;
    Alcotest.test_case "corrupt+byzantine run replays" `Quick test_corrupt_run_replays;
    Alcotest.test_case "unknown strategy is an error" `Quick test_unknown_strategy_is_error;
    Alcotest.test_case "header round trips" `Quick test_header_roundtrip;
    Alcotest.test_case "trace file round trips" `Quick test_trace_file_roundtrip;
    Alcotest.test_case "trace file parse errors" `Quick test_trace_file_errors;
    Alcotest.test_case "fingerprint mismatch rules" `Quick test_fingerprint_mismatch;
    Alcotest.test_case "stream comparison shapes" `Quick test_compare_streams_shapes;
  ]
