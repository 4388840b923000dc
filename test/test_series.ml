(* The streaming observability pipeline (PR 8): the mergeable quantile
   digest, the associative window-merge law, tumbling-window series
   bookkeeping, the online stabilization detector's semantics, and the
   cross-check that the online verdict matches a post-hoc recompute
   from the full trace — at every trace level, bit-identically. *)

open Sbft_sim
module Series = Sbft_sim.Series

(* ------------------------------------------------------------------ *)
(* quantile digest *)

let true_percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) rank))

(* Rank of [v] within [sorted]: how many samples are <= v. *)
let rank_of sorted v =
  Array.fold_left (fun acc x -> if x <= v then acc + 1 else acc) 0 sorted

let check_rank_error ~msg sorted p estimate =
  let n = Array.length sorted in
  let target = p /. 100.0 *. float_of_int n in
  let got = float_of_int (rank_of sorted estimate) in
  let slack = Float.max 3.0 (0.06 *. float_of_int n) in
  if Float.abs (got -. target) > slack then
    Alcotest.failf "%s: p%.0f estimate %g has rank %.0f, want %.0f (±%.0f) of %d" msg p estimate
      got target slack n

let test_quantile_accuracy () =
  let rng = Rng.create 5L in
  let samples = Array.init 2000 (fun _ -> Rng.float rng *. 1000.0) in
  let q = Series.Quantile.create () in
  Array.iter (Series.Quantile.add q) samples;
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  List.iter
    (fun p -> check_rank_error ~msg:"uniform" sorted p (Series.Quantile.quantile q p))
    [ 10.0; 50.0; 90.0; 99.0 ];
  Alcotest.(check int) "digest saw everything" 2000 (Series.Quantile.count q)

let test_quantile_no_saturation () =
  (* The fixed histogram buckets cap out at their top bound; the digest
     must keep following the data into the tail. *)
  let q = Series.Quantile.create () in
  for i = 1 to 1000 do
    Series.Quantile.add q (float_of_int (i * 1000))
  done;
  let p99 = Series.Quantile.quantile q 99.0 in
  Alcotest.(check bool)
    (Printf.sprintf "p99 %g tracks the tail" p99)
    true
    (p99 > 900_000.0 && p99 <= 1_000_000.0)

(* ------------------------------------------------------------------ *)
(* window-merge law (qcheck) *)

let agg_of ?(quantiles = true) values =
  let a = Series.Agg.empty () in
  List.iter (Series.Agg.observe ~quantiles a) values;
  a

let floats_gen = QCheck.(list_of_size Gen.(int_range 0 200) (float_bound_exclusive 1000.0))

let qcheck_merge_matches_direct =
  QCheck.Test.make ~name:"series: merged windows equal direct aggregation" ~count:200
    QCheck.(pair floats_gen floats_gen)
    (fun (xs, ys) ->
      let merged = Series.Agg.merge (agg_of xs) (agg_of ys) in
      let direct = agg_of (xs @ ys) in
      let close a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.abs b) in
      merged.Series.Agg.count = direct.Series.Agg.count
      && close merged.Series.Agg.sum direct.Series.Agg.sum
      && close (Series.Agg.min merged) (Series.Agg.min direct)
      && close (Series.Agg.max merged) (Series.Agg.max direct)
      &&
      let all = Array.of_list (xs @ ys) in
      Array.sort compare all;
      Array.length all = 0
      ||
      (check_rank_error ~msg:"merged digest" all 95.0 (Series.Agg.quantile merged 95.0);
       true))

let qcheck_merge_associative =
  QCheck.Test.make ~name:"series: window merge is associative" ~count:200
    QCheck.(triple floats_gen floats_gen floats_gen)
    (fun (xs, ys, zs) ->
      let a () = agg_of xs and b () = agg_of ys and c () = agg_of zs in
      let l = Series.Agg.merge (Series.Agg.merge (a ()) (b ())) (c ()) in
      let r = Series.Agg.merge (a ()) (Series.Agg.merge (b ()) (c ())) in
      l.Series.Agg.count = r.Series.Agg.count
      && Float.abs (l.Series.Agg.sum -. r.Series.Agg.sum) <= 1e-6
      && Series.Agg.min l = Series.Agg.min r
      && Series.Agg.max l = Series.Agg.max r
      &&
      (* both orders must agree with the pooled data within rank error *)
      let all = Array.of_list (xs @ ys @ zs) in
      Array.sort compare all;
      Array.length all = 0
      ||
      (check_rank_error ~msg:"assoc-left" all 90.0 (Series.Agg.quantile l 90.0);
       check_rank_error ~msg:"assoc-right" all 90.0 (Series.Agg.quantile r 90.0);
       true))

(* ------------------------------------------------------------------ *)
(* tumbling windows *)

let test_series_windows () =
  let s = Series.create ~window:10 ~name:"t" () in
  Series.observe s ~time:3 1.0;
  Series.observe s ~time:7 2.0;
  (* skip windows 1 and 2 entirely *)
  Series.observe s ~time:35 5.0;
  Series.roll_to s ~time:60;
  Alcotest.(check int) "closed windows" 6 (Series.closed_windows s);
  let recent = Series.recent s () in
  Alcotest.(check int) "empties materialized" 6 (List.length recent);
  let agg i = List.assoc i recent in
  Alcotest.(check int) "window 0 count" 2 (agg 0).Series.Agg.count;
  Alcotest.(check bool) "window 1 empty" true (Series.Agg.is_empty (agg 1));
  Alcotest.(check int) "window 3 count" 1 (agg 3).Series.Agg.count;
  Alcotest.(check int) "total count" 3 (Series.total s).Series.Agg.count

(* A pathological gap between observations — 10^7 ticks against a
   1-tick window, the idle-shard shape — must fast-forward instead of
   materializing 10^7 aggregates.  The fast path and the one-at-a-time
   walk must be indistinguishable through the public API: same closed
   count, same recent windows (all empty but the endpoints), same
   totals, and later observations land in the right windows. *)
let test_series_pathological_gap () =
  let s = Series.create ~window:1 ~keep:8 ~name:"gap" () in
  Series.observe s ~time:0 1.0;
  (* the 10^7-tick jump: must complete instantly, not in 10^7 steps *)
  Series.observe s ~time:10_000_000 2.0;
  Alcotest.(check int) "all skipped windows accounted" 10_000_000 (Series.closed_windows s);
  let recent = Series.recent s () in
  Alcotest.(check int) "recent bounded by keep" 8 (List.length recent);
  List.iter
    (fun (idx, agg) ->
      Alcotest.(check bool)
        (Printf.sprintf "window %d reads back empty" idx)
        true (Series.Agg.is_empty agg))
    recent;
  (* the open window carries the post-gap observation; close it and a
     couple more and re-read *)
  Series.observe s ~time:10_000_001 3.0;
  Series.roll_to s ~time:10_000_004;
  let agg idx = List.assoc idx (Series.recent s ()) in
  Alcotest.(check int) "post-gap window count" 1 (agg 10_000_000).Series.Agg.count;
  Alcotest.(check int) "next window count" 1 (agg 10_000_001).Series.Agg.count;
  Alcotest.(check bool) "tail empty" true (Series.Agg.is_empty (agg 10_000_002));
  Alcotest.(check int) "total unaffected" 3 (Series.total s).Series.Agg.count;
  (* same run, gap short of the fast-forward threshold: the two paths
     agree window for window *)
  let slow = Series.create ~window:1 ~keep:8 ~name:"slow" () in
  let fast = Series.create ~window:1 ~keep:8 ~name:"fast" () in
  Series.observe slow ~time:0 1.0;
  Series.observe fast ~time:0 1.0;
  for t = 1 to 20 do
    Series.roll_to slow ~time:t (* gap 1 every step: always walks *)
  done;
  Series.roll_to fast ~time:20 (* gap 20 > keep: jumps *);
  Alcotest.(check int) "paths agree on closed" (Series.closed_windows slow)
    (Series.closed_windows fast);
  List.iter2
    (fun (i, a) (j, b) ->
      Alcotest.(check int) "same indices" i j;
      Alcotest.(check int) "same counts" a.Series.Agg.count b.Series.Agg.count)
    (Series.recent slow ()) (Series.recent fast ())

(* With an [on_close] hook installed the fast path must stand down:
   hooks contract to see every window index exactly once, in order,
   empties included. *)
let test_series_gap_with_hooks () =
  let s = Series.create ~window:10 ~keep:4 ~name:"hooked" () in
  let seen = ref [] in
  Series.on_close s (fun ~index agg -> seen := (index, agg.Series.Agg.count) :: !seen);
  Series.observe s ~time:5 1.0;
  Series.roll_to s ~time:400 (* 40 windows, far beyond keep=4 *);
  let seen = List.rev !seen in
  Alcotest.(check int) "hook saw every window" 40 (List.length seen);
  List.iteri
    (fun i (idx, count) ->
      Alcotest.(check int) "indices dense and ordered" i idx;
      Alcotest.(check int) "only window 0 dirty" (if i = 0 then 1 else 0) count)
    seen

let test_series_fleet_rollup () =
  let a = Series.create ~window:10 ~name:"a" () and b = Series.create ~window:10 ~name:"b" () in
  Series.observe a ~time:5 1.0;
  Series.observe b ~time:15 4.0;
  Series.roll_to a ~time:30;
  Series.roll_to b ~time:30;
  let fleet = Series.merge_recent [ a; b ] in
  Alcotest.(check int) "fleet window 0" 1 (List.assoc 0 fleet).Series.Agg.count;
  Alcotest.(check int) "fleet window 1" 1 (List.assoc 1 fleet).Series.Agg.count;
  Alcotest.check_raises "mismatched widths rejected"
    (Invalid_argument "Series.merge_recent: window widths differ") (fun () ->
      ignore (Series.merge_recent [ a; Series.create ~window:20 ~name:"c" () ]))

(* ------------------------------------------------------------------ *)
(* detector semantics *)

let test_detector_basic () =
  let d = Series.Detector.create ~k:3 ~window:10 ~after:5 () in
  Series.Detector.observe d ~time:7 ~dirty:true;
  Alcotest.(check bool) "pending while dirty" true (Series.Detector.state d = Series.Detector.Pending);
  (* windows 1..9 elapse clean as a gap *)
  Series.Detector.observe d ~time:105 ~dirty:false;
  Alcotest.(check bool) "stabilized through the gap" true
    (Series.Detector.state d = Series.Detector.Stabilized 10);
  Alcotest.(check (option int)) "tts from the fault" (Some 5) (Series.Detector.time_to_stabilize d)

let test_detector_revocation () =
  let d = Series.Detector.create ~k:2 ~window:10 ~after:0 () in
  Series.Detector.observe d ~time:5 ~dirty:true;
  Series.Detector.observe d ~time:35 ~dirty:false;
  Alcotest.(check bool) "provisionally stabilized" true
    (Series.Detector.state d = Series.Detector.Stabilized 10);
  (* late dirt revokes and restarts the streak *)
  Series.Detector.observe d ~time:36 ~dirty:true;
  Alcotest.(check bool) "revoked" true (Series.Detector.state d = Series.Detector.Pending);
  ignore (Series.Detector.finalize d ~now:100);
  Alcotest.(check bool) "re-stabilized after the dirt" true
    (Series.Detector.state d = Series.Detector.Stabilized 40);
  Alcotest.(check int) "dirty windows counted" 2 (Series.Detector.dirty_windows d)

(* Feeding per-op observations and feeding per-window steps must agree:
   the detector's own windowing is just bookkeeping. *)
let qcheck_detector_chunking_invariance =
  QCheck.Test.make ~name:"detector: per-op and per-window feeds agree" ~count:300
    QCheck.(pair (int_bound 10_000) (list_of_size Gen.(int_range 0 60) (int_bound 500)))
    (fun (seed, dirty_times) ->
      let window = 10 and k = 3 and after = 42 in
      let dirty_times = List.sort compare dirty_times in
      let horizon = 600 in
      let by_op = Series.Detector.create ~k ~window ~after () in
      List.iter (fun t -> Series.Detector.observe by_op ~time:t ~dirty:true) dirty_times;
      let s1 = Series.Detector.finalize by_op ~now:horizon in
      let by_window = Series.Detector.create ~k ~window ~after () in
      let dirty_idx = List.sort_uniq compare (List.map (fun t -> t / window) dirty_times) in
      List.iter (fun index -> Series.Detector.step by_window ~index ~dirty:true) dirty_idx;
      let s2 = Series.Detector.finalize by_window ~now:horizon in
      ignore seed;
      s1 = s2 && Series.Detector.dirty_windows by_op = Series.Detector.dirty_windows by_window)

(* ------------------------------------------------------------------ *)
(* online vs offline, and trace-level invariance *)

let run_faulted_kv ~level =
  let shards = 16 in
  let window = 40 in
  let kv =
    Sbft_kv.Store.create ~seed:29L ~trace_level:level ~series_window:window ~shards ~n:6 ~f:1
      ~clients:8 ()
  in
  let engine = Sbft_kv.Store.engine kv in
  let events = ref [] in
  Trace.add_sink (Engine.trace engine) (fun ~time e -> events := (time, e) :: !events);
  Array.iter
    (fun key -> Sbft_kv.Store.put kv ~client:0 ~key ~value:7 ())
    (Array.init 32 (Printf.sprintf "key-%d"));
  Sbft_kv.Store.quiesce kv;
  let fault_at = Engine.now engine + 250 in
  Engine.schedule engine ~delay:250 (fun () ->
      for s = 0 to 2 do
        Sbft_kv.Store.apply_to_shard kv ~shard:s (fun sys ->
            Sbft_core.System.corrupt_everything sys ~severity:`Heavy)
      done);
  let stab = Sbft_harness.Stabilization.attach ~window ~after:fault_at kv in
  let _ =
    Sbft_harness.Workload.run_kv
      ~spec:{ Sbft_harness.Workload.default_kv with kv_ops_per_client = 25; keys = 32 }
      kv
  in
  let now = Engine.now engine in
  Sbft_harness.Stabilization.finalize stab ~now;
  (stab, List.rev !events, now, fault_at, window, shards)

let test_online_matches_offline () =
  let stab, events, now, fault_at, window, shards = run_faulted_kv ~level:Trace.On in
  Alcotest.(check bool) "trace has events" true (List.length events > 0);
  (* One bank, two feeders: the live store observer and the trace see
     the same (completion time, dirty) stream, so the verdicts agree
     exactly, per shard and fleet-wide. *)
  let off = Sbft_harness.Stabilization.of_events ~window ~after:fault_at ~shards events in
  Sbft_harness.Stabilization.finalize off ~now;
  let verdicts b =
    List.init shards (Sbft_harness.Stabilization.time_to_stabilize b)
    @ [ Sbft_harness.Stabilization.fleet_time_to_stabilize b ]
  in
  Alcotest.(check bool) "some shard stabilized" true
    (Sbft_harness.Stabilization.stabilized_shards stab > 0);
  Alcotest.(check (list (option int))) "per-shard then fleet tts" (verdicts stab) (verdicts off);
  Alcotest.(check string) "identical verdict json"
    (Sbft_sim.Json.to_string (Sbft_harness.Stabilization.to_json stab))
    (Sbft_sim.Json.to_string (Sbft_harness.Stabilization.to_json off))

let test_trace_level_invariance () =
  (* The detector feeds on op completions and the virtual clock, never
     the trace: its verdicts must be bit-identical across dial levels. *)
  let verdicts (stab, _, _, _, _, shards) =
    List.init shards (fun s -> Sbft_harness.Stabilization.time_to_stabilize stab s)
    @ [ Sbft_harness.Stabilization.fleet_time_to_stabilize stab ]
  in
  let on = verdicts (run_faulted_kv ~level:Trace.On) in
  let off = verdicts (run_faulted_kv ~level:Trace.Off) in
  Alcotest.(check (list (option int))) "verdicts identical across trace levels" on off

(* The anomaly ruleset fires on a corrupted shard, edge-triggered, and
   mirrors each rising edge as an [Alert] trace event. *)
let test_alerts_fire_on_corruption () =
  let window = 200 in
  let kv =
    Sbft_kv.Store.create ~seed:31L ~trace_level:Trace.On ~series_window:window ~shards:4 ~n:6
      ~f:1 ~clients:6 ()
  in
  let engine = Sbft_kv.Store.engine kv in
  let alert_events = ref 0 in
  Trace.add_sink (Engine.trace engine) (fun ~time:_ e ->
      match e with Event.Alert _ -> incr alert_events | _ -> ());
  Array.iter
    (fun key -> Sbft_kv.Store.put kv ~client:0 ~key ~value:1 ())
    (Array.init 16 (Printf.sprintf "key-%d"));
  Sbft_kv.Store.quiesce kv;
  Engine.schedule engine ~delay:100 (fun () ->
      for s = 0 to 1 do
        Sbft_kv.Store.apply_to_shard kv ~shard:s (fun sys ->
            Sbft_core.System.corrupt_everything sys ~severity:`Heavy)
      done);
  let alerts =
    Sbft_harness.Alerts.attach
      ~config:
        {
          Sbft_harness.Alerts.default_config with
          slo = { Sbft_harness.Slo.p99_ticks = 10_000.0; error_budget = 0.001 };
          min_ops = 1;
          spike_min_rate = 0.05;
        }
      kv
  in
  let _ =
    Sbft_harness.Workload.run_kv
      ~spec:{ Sbft_harness.Workload.default_kv with kv_ops_per_client = 40; keys = 16 }
      kv
  in
  Sbft_harness.Alerts.finalize alerts ~now:(Engine.now engine);
  Alcotest.(check bool) "some rule fired" true (Sbft_harness.Alerts.fired alerts > 0);
  Alcotest.(check int) "one trace event per rising edge" (Sbft_harness.Alerts.fired alerts)
    !alert_events;
  let known = [ "slo_burn"; "abort_spike"; "divergence" ] in
  List.iter
    (fun (f : Sbft_harness.Alerts.firing) ->
      Alcotest.(check bool) ("known rule " ^ f.rule) true (List.mem f.rule known))
    (Sbft_harness.Alerts.log alerts)

let test_stabilization_metrics_registered () =
  let stab, _, _, _, _, _ = run_faulted_kv ~level:Trace.Off in
  Alcotest.(check bool) "some shard stabilized" true
    (Sbft_harness.Stabilization.stabilized_shards stab > 0)

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "quantile digest tracks uniform percentiles" `Quick test_quantile_accuracy;
    Alcotest.test_case "quantile digest never saturates" `Quick test_quantile_no_saturation;
    QCheck_alcotest.to_alcotest qcheck_merge_matches_direct;
    QCheck_alcotest.to_alcotest qcheck_merge_associative;
    Alcotest.test_case "tumbling windows materialize empties" `Quick test_series_windows;
    Alcotest.test_case "10^7-tick gaps fast-forward, read back empty" `Quick
      test_series_pathological_gap;
    Alcotest.test_case "close hooks disable the gap fast path" `Quick test_series_gap_with_hooks;
    Alcotest.test_case "fleet rollup merges point-wise" `Quick test_series_fleet_rollup;
    Alcotest.test_case "detector stabilizes through gaps" `Quick test_detector_basic;
    Alcotest.test_case "late dirt revokes a declaration" `Quick test_detector_revocation;
    QCheck_alcotest.to_alcotest qcheck_detector_chunking_invariance;
    Alcotest.test_case "online tts matches post-hoc recompute" `Quick test_online_matches_offline;
    Alcotest.test_case "verdicts invariant across trace levels" `Quick test_trace_level_invariance;
    Alcotest.test_case "detector stabilizes the faulted fleet" `Quick
      test_stabilization_metrics_registered;
  ]
