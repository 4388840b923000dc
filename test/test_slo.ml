(* Per-shard SLO evaluation, the engine self-profiler and the progress
   heartbeat — the PR-6 observability surfaces that are not the trace
   dial itself. *)

module Metrics = Sbft_sim.Metrics
module Names = Sbft_sim.Metric_names
module Profile = Sbft_sim.Profile
module Trace = Sbft_sim.Trace
module Event = Sbft_sim.Event
module Engine = Sbft_sim.Engine
module Slo = Sbft_harness.Slo
module Store = Sbft_kv.Store

(* ------------------------------------------------------------------ *)
(* metric names *)

let test_kv_shard_names () =
  let a = Names.kv_shard ~shard:3 Names.Shard_puts in
  Alcotest.(check string) "minted form" "kv.shard.3.puts" a;
  Alcotest.(check bool) "registered via prefix" true (Names.mem a);
  Alcotest.(check bool) "every field registered" true
    (List.for_all (fun f -> Names.mem (Names.kv_shard ~shard:17 f)) Names.shard_fields);
  let names = List.map (fun f -> Names.kv_shard ~shard:0 f) Names.shard_fields in
  Alcotest.(check int) "fields mint distinct names" (List.length names)
    (List.length (List.sort_uniq compare names))

(* ------------------------------------------------------------------ *)
(* SLO evaluation over hand-built metrics *)

let record_shard m ~shard ~puts ~gets ~aborts ~put_ticks ~get_ticks =
  for _ = 1 to puts do
    Metrics.incr m (Names.kv_shard ~shard Names.Shard_puts);
    Metrics.record m (Names.kv_shard ~shard Names.Shard_put_ticks) put_ticks
  done;
  for _ = 1 to gets do
    Metrics.incr m (Names.kv_shard ~shard Names.Shard_gets);
    Metrics.record m (Names.kv_shard ~shard Names.Shard_get_ticks) get_ticks
  done;
  for _ = 1 to aborts do
    Metrics.incr m (Names.kv_shard ~shard Names.Shard_aborts)
  done

let target = { Slo.p99_ticks = 100.0; error_budget = 0.1 }

let find report i = List.find (fun (s : Slo.shard) -> s.shard = i) report.Slo.shards

let test_slo_verdicts () =
  let m = Metrics.create () in
  (* shard 0: healthy.  shard 1: latency blown.  shard 2: budget blown
     (3 aborts over 10+3 ops > 10%).  shard 3: never touched. *)
  record_shard m ~shard:0 ~puts:10 ~gets:10 ~aborts:0 ~put_ticks:20.0 ~get_ticks:30.0;
  record_shard m ~shard:1 ~puts:10 ~gets:10 ~aborts:0 ~put_ticks:20.0 ~get_ticks:5000.0;
  record_shard m ~shard:2 ~puts:5 ~gets:5 ~aborts:3 ~put_ticks:20.0 ~get_ticks:30.0;
  let r = Slo.evaluate ~target ~shards:4 m in
  Alcotest.(check int) "one row per shard" 4 (List.length r.shards);
  Alcotest.(check bool) "shard 0 ok" true (find r 0).ok;
  let s1 = find r 1 in
  Alcotest.(check bool) "shard 1 latency miss" false s1.latency_ok;
  Alcotest.(check bool) "shard 1 budget fine" true s1.budget_ok;
  let s2 = find r 2 in
  Alcotest.(check bool) "shard 2 latency fine" true s2.latency_ok;
  Alcotest.(check bool) "shard 2 budget blown" false s2.budget_ok;
  Alcotest.(check bool) "shard 2 budget_used > 1" true (s2.budget_used > 1.0);
  Alcotest.(check bool) "idle shard passes trivially" true (find r 3).ok;
  Alcotest.(check bool) "store verdict is the conjunction" false r.ok;
  (* and all-healthy metrics pass *)
  let m' = Metrics.create () in
  record_shard m' ~shard:0 ~puts:10 ~gets:10 ~aborts:0 ~put_ticks:20.0 ~get_ticks:30.0;
  Alcotest.(check bool) "healthy store ok" true (Slo.evaluate ~target ~shards:1 m').ok

let test_slo_json_shape () =
  let m = Metrics.create () in
  record_shard m ~shard:0 ~puts:4 ~gets:4 ~aborts:0 ~put_ticks:20.0 ~get_ticks:30.0;
  let j = Slo.to_json (Slo.evaluate ~target ~shards:1 m) in
  let module J = Sbft_sim.Json in
  Alcotest.(check bool) "has target" true (J.member "target" j <> None);
  Alcotest.(check bool) "has ok" true (J.member "ok" j <> None);
  match J.member "shards" j with
  | Some (J.List [ row ]) ->
      List.iter
        (fun k -> Alcotest.(check bool) ("row has " ^ k) true (J.member k row <> None))
        [ "shard"; "puts"; "gets"; "aborts"; "put_ticks"; "get_ticks"; "slo" ]
  | _ -> Alcotest.fail "shards member missing or not a one-row list"

(* ------------------------------------------------------------------ *)
(* per-shard counters populated by the store itself *)

let test_store_populates_shard_metrics () =
  let kv = Store.create ~seed:7L ~shards:4 ~n:6 ~f:1 ~clients:2 () in
  let m = Engine.metrics (Store.engine kv) in
  for i = 0 to 15 do
    Store.put kv ~client:(i mod 2) ~key:(Printf.sprintf "k%d" i) ~value:i ()
  done;
  Store.quiesce kv;
  for i = 0 to 15 do
    Store.get kv ~client:(i mod 2) ~key:(Printf.sprintf "k%d" i) ()
  done;
  Store.quiesce kv;
  let sum field =
    List.fold_left
      (fun acc shard -> acc + Metrics.get m (Names.kv_shard ~shard field))
      0 [ 0; 1; 2; 3 ]
  in
  Alcotest.(check int) "every put counted once, in its shard" 16 (sum Names.Shard_puts);
  Alcotest.(check int) "every get counted once" 16 (sum Names.Shard_gets);
  Alcotest.(check int) "no aborts in a quiet run" 0 (sum Names.Shard_aborts);
  (* latency histograms carry one sample per completed op *)
  let hist_count field =
    List.fold_left
      (fun acc shard ->
        match Metrics.histogram m (Names.kv_shard ~shard field) with
        | Some h -> acc + h.Metrics.count
        | None -> acc)
      0 [ 0; 1; 2; 3 ]
  in
  Alcotest.(check int) "put latencies sampled" 16 (hist_count Names.Shard_put_ticks);
  Alcotest.(check int) "get latencies sampled" 16 (hist_count Names.Shard_get_ticks);
  let r = Slo.evaluate ~shards:4 m in
  Alcotest.(check bool) "default SLO passes a quiet run" true r.ok

(* ------------------------------------------------------------------ *)
(* profiler *)

let spin_until_ns ns =
  let t0 = Sbft_harness.Clock.now_ns () in
  while Int64.sub (Sbft_harness.Clock.now_ns ()) t0 < ns do
    ()
  done

let test_profile_phases () =
  let p = Profile.create () in
  Alcotest.(check bool) "created disabled" false (Profile.enabled p);
  (* disabled: everything is a no-op *)
  Profile.enter p Profile.Checker;
  Profile.leave p;
  let r = Profile.report p in
  Alcotest.(check bool) "disabled report is empty" true
    (List.for_all (fun (_, enters, _) -> enters = 0) r.phase_rows);
  Profile.enable p;
  Profile.with_phase p Profile.Checker (fun () -> spin_until_ns 2_000_000L);
  let r = Profile.report p in
  let checker_row =
    List.find (fun (l, _, _) -> l = "checker") r.phase_rows
  in
  let _, enters, self_s = checker_row in
  Alcotest.(check int) "one enter" 1 enters;
  Alcotest.(check bool) "self time charged (>=1ms)" true (self_s >= 0.001);
  Alcotest.(check bool) "wall covers self" true (r.wall_s >= self_s)

let test_profile_event_attribution () =
  let p = Profile.create () in
  Profile.enable p;
  let tr = Trace.create ~level:Trace.On () in
  Trace.add_sink tr (Profile.event_sink p);
  for i = 1 to 5 do
    Trace.emit tr ~time:i (Event.Msg_sent { src = 0; dst = 1; kind = "write_req"; span = Event.no_span })
  done;
  Trace.emit tr ~time:9 (Event.Fault_injected { desc = "x" });
  let r = Profile.report ~top:2 p in
  Alcotest.(check int) "all events counted" 6 r.events_total;
  (match r.event_rows with
  | (kind, n) :: _ ->
      Alcotest.(check string) "top kind" "msg_sent" kind;
      Alcotest.(check int) "top count" 5 n
  | [] -> Alcotest.fail "no event rows");
  Alcotest.(check int) "top-K honoured" 2 (List.length r.event_rows)

(* ------------------------------------------------------------------ *)
(* progress heartbeat *)

let test_progress_beats_and_determinism () =
  let run progress =
    let cfg = Sbft_core.Config.make ~n:6 ~f:1 ~clients:2 () in
    let sys = Sbft_core.System.create ~seed:33L ~trace_level:Trace.On cfg in
    let engine = Sbft_core.System.engine sys in
    let events = ref [] in
    Trace.add_sink (Engine.trace engine) (fun ~time ev -> events := (time, ev) :: !events);
    let hb =
      if progress then
        Some
          (Sbft_harness.Progress.attach ~every_s:0.0 ~poll_ticks:5
             ~out:(open_out Filename.null) engine (fun () -> "payload"))
      else None
    in
    Sbft_core.System.write sys ~client:6 ~value:1
      ~k:(fun () -> Sbft_core.System.read sys ~client:7 ())
      ();
    Sbft_core.System.quiesce sys;
    (match hb with
    | Some t ->
        Sbft_harness.Progress.finish t;
        Alcotest.(check bool) "heartbeat fired" true (Sbft_harness.Progress.beats t >= 1)
    | None -> ());
    (List.rev !events, Engine.now engine)
  in
  let with_hb = run true and without = run false in
  (* attaching the probe must not perturb the run: identical event
     stream; the virtual end-time may only round up to the probe's next
     poll boundary (its final re-arm outlives the last real event) *)
  Alcotest.(check bool) "same event stream" true (fst with_hb = fst without);
  Alcotest.(check bool) "end time only rounds up to the poll boundary" true
    (snd with_hb >= snd without && snd with_hb <= snd without + 5)

let suite =
  [
    Alcotest.test_case "kv_shard names: minted, registered" `Quick test_kv_shard_names;
    Alcotest.test_case "slo verdicts per shard" `Quick test_slo_verdicts;
    Alcotest.test_case "slo json shape" `Quick test_slo_json_shape;
    Alcotest.test_case "store populates per-shard metrics" `Quick
      test_store_populates_shard_metrics;
    Alcotest.test_case "profile: phase self-times" `Quick test_profile_phases;
    Alcotest.test_case "profile: event attribution" `Quick test_profile_event_attribution;
    Alcotest.test_case "progress: beats, no perturbation" `Quick
      test_progress_beats_and_determinism;
  ]
