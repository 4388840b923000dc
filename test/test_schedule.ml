(* Golden schedules: three small runs whose event counts, sends, final
   clocks and history digests are pinned.  Any change to the engine's
   event queue must fire the same events in the same order, so these
   numbers may only move with a deliberate change to the simulation.

   Between them the runs take every queue path:
   - an open-loop kv run with tracing off (the plain per-op path);
   - a kv run whose store is corrupted mid-run, which injects a burst
     of forged messages into a single tick;
   - a scenario whose fault plan and slow factors schedule events far
     more than a few hundred ticks ahead, so far-future events and
     near-future events fall due at the same instants. *)

module Engine = Sbft_sim.Engine
module Metrics = Sbft_sim.Metrics
module Names = Sbft_sim.Metric_names
module Trace = Sbft_sim.Trace
module Store = Sbft_kv.Store
module System = Sbft_core.System
module History = Sbft_spec.History
module Mw_ts = Sbft_labels.Mw_ts
module Loadgen = Sbft_harness.Loadgen
module Scenario = Sbft_harness.Scenario

type golden = { events : int; sent : int; clock : int; history : string }

let pp_golden fmt g =
  Format.fprintf fmt "{events=%d; sent=%d; clock=%d; history=%s}" g.events g.sent g.clock g.history

let golden = Alcotest.testable pp_golden ( = )

let digest_histories systems =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  List.iter (fun sys -> Format.fprintf fmt "%a@." (History.pp Mw_ts.pp) (System.history sys)) systems;
  Format.pp_print_flush fmt ();
  Digest.to_hex (Digest.string (Buffer.contents buf))

let observe engine systems =
  {
    events = Engine.events_fired engine;
    sent = Metrics.get (Engine.metrics engine) Names.net_sent;
    clock = Engine.now engine;
    history = digest_histories systems;
  }

(* Every key register the store creates, in creation order. *)
let track st =
  let systems = ref [] in
  for shard = 0 to Store.shard_count st - 1 do
    Store.apply_to_shard st ~shard (fun sys -> systems := sys :: !systems)
  done;
  fun () -> List.rev !systems

let kv_run ~corrupt_at () =
  let st = Store.create ~seed:11L ~trace_level:Trace.Off ~shards:4 ~n:6 ~f:1 ~clients:8 () in
  let systems = track st in
  (match corrupt_at with
  | Some at ->
      Engine.schedule (Store.engine st) ~delay:at (fun () ->
          Store.corrupt_everything st ~severity:`Heavy)
  | None -> ());
  let spec =
    {
      Loadgen.default with
      mode = Loadgen.Open_loop (Loadgen.Poisson 1.0);
      duration = 600;
      ops = Some 400;
      keys = 32;
    }
  in
  let o = Loadgen.run ~spec st in
  Alcotest.(check bool) "not livelocked" false o.livelocked;
  observe (Store.engine st) (systems ())

let test_kv_open_loop () =
  Alcotest.check golden "open-loop kv, trace off"
    { events = 12169; sent = 11925; clock = 1404; history = "d7899cdd521cb2797ebc882296130d07" }
    (kv_run ~corrupt_at:None ())

let test_kv_corrupted () =
  Alcotest.check golden "kv corrupted mid-run"
    { events = 15955; sent = 13993; clock = 1402; history = "c0bac8cb44b0aa4f6d5f9cd36c137566" }
    (kv_run ~corrupt_at:(Some 150) ())

(* skew-2-slow draws up to 80 ticks on servers 0 and 1; the plan slows
   node 1 sixteenfold and one client channel eightfold, so deliveries
   land up to ~1300 ticks ahead, and plan events at 300 and 700 are
   scheduled from t = 0. *)
let test_scenario_far_future () =
  let plan =
    match
      Sbft_byz.Fault_plan.of_string
        "0:slow-node:1:16,0:slow-channel:2:6:8,300:corrupt-server:3:heavy,700:corrupt-channels:0.2"
    with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let s =
    { Scenario.default with seed = 5L; clients = 3; ops_per_client = 12; delay = "skew-2-slow"; plan }
  in
  match Scenario.execute ~level:Trace.Off ~collect_events:false s with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Alcotest.check golden "far-future scenario"
        { events = 1290; sent = 1143; clock = 4400; history = "cc9f76712674ba503eda5083bd1633e8" }
        (observe (System.engine r.sys) [ r.sys ])

let suite =
  [
    Alcotest.test_case "open-loop kv run" `Quick test_kv_open_loop;
    Alcotest.test_case "kv run corrupted mid-run" `Quick test_kv_corrupted;
    Alcotest.test_case "scenario with far-future events" `Quick test_scenario_far_future;
  ]
