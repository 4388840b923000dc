(* Fault plans as data: serialization round-trips, the Byzantine
   f-budget, partition hygiene, and the structural guarantees the
   fuzzer's mutator relies on. *)

module FP = Sbft_byz.Fault_plan
module Rng = Sbft_sim.Rng

let sample_plan : FP.t =
  [
    (0, FP.Corrupt_server (2, `Heavy));
    (5, FP.Corrupt_client (6));
    (10, FP.Corrupt_channels 0.25);
    (20, FP.Corrupt_everything `Light);
    (120, FP.Byzantine (4, "equivocate"));
    (300, FP.Heal 4);
    (310, FP.Crash 7);
    (320, FP.Slow_node (1, 8));
    (330, FP.Slow_channel (0, 5, 4));
    (350, FP.Partition [ [ 0; 1; 2 ]; [ 3; 4; 5; 6; 7 ] ]);
    (400, FP.Heal_partition);
  ]

let test_string_roundtrip () =
  List.iter
    (fun ev ->
      let s = FP.to_string [ ev ] in
      match FP.of_string s with
      | Ok p -> Alcotest.(check string) ("roundtrip " ^ s) s (FP.to_string p)
      | Error e -> Alcotest.failf "event %s did not parse back: %s" s e)
    sample_plan;
  (match FP.of_string (FP.to_string sample_plan) with
  | Ok p -> Alcotest.(check bool) "plan roundtrip" true (p = sample_plan)
  | Error e -> Alcotest.failf "plan roundtrip: %s" e);
  match FP.of_string "" with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "empty string must be the empty plan"
  | Error e -> Alcotest.failf "empty string: %s" e

let test_parse_errors () =
  let bad spec =
    match FP.of_string spec with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected parse failure: %s" spec
  in
  bad "120:byz:4:no-such-strategy";
  bad "oops";
  bad "10:unknown-kind";
  bad "-5:heal:0";
  bad "10:corrupt-server:3:medium"

let test_last_at_and_sorted () =
  Alcotest.(check int) "empty plan" 0 (FP.last_at []);
  Alcotest.(check int) "sample" 400 (FP.last_at sample_plan);
  Alcotest.(check int) "unsorted input" 400 (FP.last_at (List.rev sample_plan))

let test_byz_budget () =
  let ok = FP.byz_budget_ok ~f:1 in
  Alcotest.(check bool) "empty ok" true (ok []);
  Alcotest.(check bool) "one takeover ok" true (ok [ (10, FP.Byzantine (0, "silent")) ]);
  Alcotest.(check bool) "two concurrent not ok" false
    (ok [ (10, FP.Byzantine (0, "silent")); (20, FP.Byzantine (1, "silent")) ]);
  Alcotest.(check bool) "heal frees the slot" true
    (ok
       [
         (10, FP.Byzantine (0, "silent"));
         (50, FP.Heal 0);
         (60, FP.Byzantine (1, "silent"));
       ]);
  Alcotest.(check bool) "order independent of list order" true
    (ok
       [
         (60, FP.Byzantine (1, "silent"));
         (10, FP.Byzantine (0, "silent"));
         (50, FP.Heal 0);
       ]);
  Alcotest.(check bool) "f=2 allows two" true
    (FP.byz_budget_ok ~f:2 [ (10, FP.Byzantine (0, "silent")); (20, FP.Byzantine (1, "silent")) ])

let test_partitions_healed () =
  Alcotest.(check bool) "empty" true (FP.partitions_healed []);
  Alcotest.(check bool) "healed window" true
    (FP.partitions_healed [ (10, FP.Partition [ [ 0 ]; [ 1 ] ]); (50, FP.Heal_partition) ]);
  Alcotest.(check bool) "unhealed" false
    (FP.partitions_healed [ (10, FP.Partition [ [ 0 ]; [ 1 ] ]) ]);
  Alcotest.(check bool) "heal before split does not count" false
    (FP.partitions_healed [ (5, FP.Heal_partition); (10, FP.Partition [ [ 0 ]; [ 1 ] ]) ]);
  Alcotest.(check bool) "only the last split needs healing" true
    (FP.partitions_healed
       [
         (10, FP.Partition [ [ 0 ]; [ 1 ] ]);
         (20, FP.Heal_partition);
         (30, FP.Partition [ [ 0; 1 ]; [ 2 ] ]);
         (90, FP.Heal_partition);
       ])

let test_restrict () =
  (* n=5, clients=2: endpoints 0..6 are valid *)
  let keep, drop =
    List.partition
      (fun (_, ev) ->
        match ev with
        | FP.Corrupt_client 6 -> true
        | FP.Crash 7 | FP.Slow_channel (_, _, _) | FP.Partition _ -> false
        | _ -> true)
      sample_plan
  in
  (* Slow_channel (0,5,_) targets endpoint 5 which is valid at n=5+2 *)
  ignore drop;
  let restricted = FP.restrict ~n:5 ~clients:2 sample_plan in
  Alcotest.(check bool) "drops the crash of endpoint 7" true
    (not (List.exists (function _, FP.Crash 7 -> true | _ -> false) restricted));
  Alcotest.(check bool) "drops the partition naming endpoint 7" true
    (not (List.exists (function _, FP.Partition _ -> true | _ -> false) restricted));
  Alcotest.(check bool) "keeps in-range events" true
    (List.length restricted >= List.length keep - 2);
  (* n=6, clients=4: servers 0..5, clients 6..9, every event fits *)
  Alcotest.(check bool) "identity on a fitting system" true
    (FP.restrict ~n:6 ~clients:4 sample_plan = sample_plan);
  (* a server event is not a client event and vice versa *)
  let r = FP.restrict ~n:5 ~clients:2 [ (0, FP.Corrupt_client 2); (0, FP.Byzantine (6, "silent")) ] in
  Alcotest.(check int) "server/client ranges respected" 0 (List.length r)

let test_mutate_stays_in_model () =
  let rng = Rng.create 99L in
  let n = 6 and f = 1 and clients = 3 in
  let plan = ref [] in
  for _ = 1 to 500 do
    plan := FP.mutate rng ~n ~f ~clients !plan;
    Alcotest.(check bool) "budget respected" true (FP.byz_budget_ok ~f !plan);
    Alcotest.(check bool) "partitions healed" true (FP.partitions_healed !plan);
    Alcotest.(check bool) "no crashes generated" true
      (not (List.exists (function _, FP.Crash _ -> true | _ -> false) !plan));
    Alcotest.(check bool) "all events in range" true
      (FP.restrict ~n ~clients !plan = !plan);
    List.iter (fun (at, _) -> Alcotest.(check bool) "times nonnegative" true (at >= 0)) !plan
  done;
  Alcotest.(check bool) "mutation actually grows timelines" true (!plan <> [])

let test_mutate_deterministic () =
  let campaign seed =
    let rng = Rng.create seed in
    let plan = ref [] in
    for _ = 1 to 100 do
      plan := FP.mutate rng ~n:6 ~f:1 ~clients:3 !plan
    done;
    !plan
  in
  Alcotest.(check bool) "same seed, same timeline" true (campaign 5L = campaign 5L);
  Alcotest.(check bool) "different seed diverges" true (campaign 5L <> campaign 6L)

(* An event due at the last representable tick can never fire.  Were
   it pending work, telemetry's probe would re-arm every 50 ticks and
   the run would never quiesce. *)
let test_event_at_max_int_never_pending () =
  let module Scenario = Sbft_harness.Scenario in
  match FP.of_string (Printf.sprintf "%d:crash:1" max_int) with
  | Error e -> Alcotest.failf "plan: %s" e
  | Ok plan -> (
      let s = { Scenario.default with ops_per_client = 2; plan } in
      match Scenario.execute ~level:Sbft_sim.Trace.Off ~max_events:100_000 s with
      | Error e -> Alcotest.failf "execute: %s" e
      | Ok r ->
          Alcotest.(check bool) "not livelocked" false r.outcome.livelocked;
          let ended = Sbft_sim.Engine.now (Sbft_core.System.engine r.sys) in
          Alcotest.(check bool) (Printf.sprintf "quiesced early (t=%d)" ended) true (ended < 1000))

let suite =
  [
    Alcotest.test_case "event and plan strings round trip" `Quick test_string_roundtrip;
    Alcotest.test_case "malformed specs are rejected" `Quick test_parse_errors;
    Alcotest.test_case "last_at on sorted and unsorted plans" `Quick test_last_at_and_sorted;
    Alcotest.test_case "byzantine f-budget walk" `Quick test_byz_budget;
    Alcotest.test_case "partition-heal pairing" `Quick test_partitions_healed;
    Alcotest.test_case "restrict drops out-of-range targets" `Quick test_restrict;
    Alcotest.test_case "mutation never leaves the fault model" `Quick test_mutate_stays_in_model;
    Alcotest.test_case "mutation is deterministic per seed" `Quick test_mutate_deterministic;
    Alcotest.test_case "an event at max_int is never pending" `Quick
      test_event_at_max_int_never_pending;
  ]
