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
     near-future events fall due at the same instants.

   A second table pins the three §V baseline registers the same way. *)

module Engine = Sbft_sim.Engine
module Metrics = Sbft_sim.Metrics
module Names = Sbft_sim.Metric_names
module Trace = Sbft_sim.Trace
module Store = Sbft_kv.Store
module System = Sbft_core.System
module History = Sbft_spec.History
module Mw_ts = Sbft_labels.Mw_ts
module Unbounded = Sbft_labels.Unbounded
module Loadgen = Sbft_harness.Loadgen
module Scenario = Sbft_harness.Scenario
module Register = Sbft_harness.Register
module Workload = Sbft_harness.Workload
module Baseline = Sbft_baselines.Baseline

type golden = { events : int; sent : int; clock : int; history : string }

let pp_golden fmt g =
  Format.fprintf fmt "{events=%d; sent=%d; clock=%d; history=%s}" g.events g.sent g.clock g.history

let golden = Alcotest.testable pp_golden ( = )

let digest_histories pp histories =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  List.iter (fun h -> Format.fprintf fmt "%a@." (History.pp pp) h) histories;
  Format.pp_print_flush fmt ();
  Digest.to_hex (Digest.string (Buffer.contents buf))

let observe_histories engine pp histories =
  {
    events = Engine.events_fired engine;
    sent = Metrics.get (Engine.metrics engine) Names.net_sent;
    clock = Engine.now engine;
    history = digest_histories pp histories;
  }

let observe engine systems = observe_histories engine Mw_ts.pp (List.map System.history systems)

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

(* The baselines at E8's shapes (seed 11, f = 1, four clients, 15 ops
   per client): clean, with server n-1 Byzantine, transient (E8's
   poison ids plus 20% channel garbage), and ABD with server 2 crashed. *)
type fault = Clean | Byzantine | Transient | Crash

let baseline_run name fault =
  let protocol, n, poisoned =
    match name with
    | "abd" -> (Baseline.Abd, 3, [ 0 ])
    | "kanjani" -> (Baseline.Kanjani, 4, [ 0; 1 ])
    | _ -> (Baseline.Mr_safe, 6, [ 0; 1 ])
  in
  let sys = Baseline.create ~seed:11L protocol ~n ~f:1 ~clients:4 () in
  (match fault with
  | Clean -> ()
  | Byzantine -> Baseline.make_byzantine sys (n - 1)
  | Transient ->
      Baseline.poison sys ~ids:poisoned;
      Baseline.corrupt_channels sys ~density:0.2
  | Crash -> Baseline.crash_server sys 2);
  ignore (Workload.run ~spec:{ Workload.default with ops_per_client = 15 } (Register.baseline sys));
  observe_histories (Baseline.engine sys) Unbounded.pp [ Baseline.history sys ]

let baseline_golden =
  [
    ("abd", Clean,
     { events = 784; sent = 720; clock = 587; history = "2c4494f5de8cf6b10d90cb6c3ab4657c" });
    ("abd", Byzantine,
     { events = 784; sent = 720; clock = 587; history = "82b369de513ea8ab1ad2301cce101327" });
    ("abd", Transient,
     { events = 793; sent = 720; clock = 587; history = "97e3f2acbd2e71459b05a1cf048d006e" });
    ("abd", Crash,
     { events = 664; sent = 600; clock = 601; history = "b2bf5180e904317ac3a35f34259acd3d" });
    ("kanjani", Clean,
     { events = 664; sent = 600; clock = 451; history = "7c00e6e364ff28560bcf746c5f6eed17" });
    ("kanjani", Byzantine,
     { events = 680; sent = 616; clock = 429; history = "0a1870604da8d1d26e474a68f3d1cec9" });
    ("kanjani", Transient,
     { events = 673; sent = 600; clock = 451; history = "29dc4ea1cf02d69567ba91fb834d2704" });
    ("mr-safe", Clean,
     { events = 784; sent = 720; clock = 408; history = "41c8c4c7d8f9e5b03e19399ff2970d1a" });
    ("mr-safe", Byzantine,
     { events = 784; sent = 720; clock = 408; history = "41c8c4c7d8f9e5b03e19399ff2970d1a" });
    ("mr-safe", Transient,
     { events = 801; sent = 720; clock = 408; history = "df56c27a47d822f47d74ef21828efc30" });
  ]

let fault_name = function
  | Clean -> "clean"
  | Byzantine -> "byzantine"
  | Transient -> "transient"
  | Crash -> "crash"

let suite =
  [
    Alcotest.test_case "open-loop kv run" `Quick test_kv_open_loop;
    Alcotest.test_case "kv run corrupted mid-run" `Quick test_kv_corrupted;
    Alcotest.test_case "scenario with far-future events" `Quick test_scenario_far_future;
  ]
  @ List.map
      (fun (name, fault, expected) ->
        let label = name ^ " " ^ fault_name fault in
        Alcotest.test_case ("baseline " ^ label) `Quick (fun () ->
            Alcotest.check golden label expected (baseline_run name fault)))
      baseline_golden
