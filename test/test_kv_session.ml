(* The kv session behind `sbftreg kv` and `sbftreg watch`, driven as a
   library: a closed-loop, an open-loop and a --doom session, the
   committed sample artifact reproduced byte for byte, and the spec
   checks that turn hostile flags into typed errors before any
   simulation. *)

module Kv_session = Sbft_harness.Kv_session
module Loadgen = Sbft_harness.Loadgen
module Slo = Sbft_harness.Slo
module Stabilization = Sbft_harness.Stabilization
module Detector = Sbft_sim.Series.Detector
module Trace = Sbft_sim.Trace
module Json = Sbft_sim.Json
module Store = Sbft_kv.Store

let session spec = Kv_session.run ~on_store:ignore ~on_start:ignore spec

let run spec =
  match session spec with
  | Ok o -> o
  | Error e -> Alcotest.failf "session rejected a valid spec: %s" e

let artifact spec o = Json.to_string (Kv_session.metrics_json spec o)

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let closed =
  { Kv_session.default with shards = 4; keys = 16; clients = 4; ops = 20; seed = 3L; trace_level = Off }

let test_closed_loop () =
  let o = run closed in
  (match o.workload with
  | Closed w ->
      Alcotest.(check int) "every client ran its quota" (4 * 20) (w.issued_puts + w.issued_gets)
  | Open _ -> Alcotest.fail "a spec without an arrival process ran open loop");
  Alcotest.(check bool) "the audit checked reads" true (o.checked > 0);
  Alcotest.(check int) "no violations" 0 o.violations;
  Alcotest.(check bool) "series on, so alerts attached" true (o.session.alerts <> None);
  Alcotest.(check bool) "no fault scheduled" true
    (o.session.doomed = None && o.session.faulted = None);
  Alcotest.(check int) "one SLO row per shard" 4 (List.length o.slo.shards);
  Alcotest.(check bool) "no profile unless asked" true (o.profile = None);
  Alcotest.(check string) "same spec, same artifact" (artifact closed o) (artifact closed (run closed));
  let off = run { closed with window = 0 } in
  Alcotest.(check bool) "--window 0 turns the alerts off" true (off.session.alerts = None);
  Alcotest.(check bool) "...and the series" false (contains (artifact closed off) {|"series"|})

let test_open_loop () =
  let spec =
    {
      Kv_session.default with
      shards = 4;
      clients = 8;
      keys = 16;
      seed = 9L;
      trace_level = Off;
      window = 40;
      arrival = Some (Loadgen.Poisson 0.4);
      duration = 600;
      mix = 0.25;
      max_queue = 64;
    }
  in
  let o = run spec in
  (match o.workload with
  | Open (lspec, lo) ->
      Alcotest.(check (float 0.0)) "mix is the write ratio" 0.25 lspec.write_ratio;
      Alcotest.(check int) "offered = accepted + rejected" lo.offered (lo.accepted + lo.rejected);
      Alcotest.(check bool) "work completed" true (lo.completed > 0)
  | Closed _ -> Alcotest.fail "an arrival process ran closed loop");
  let a = artifact spec o in
  Alcotest.(check bool) "artifact carries the loadgen block" true (contains a {|"loadgen"|});
  Alcotest.(check bool) "and the arrival process" true (contains a {|"arrival":"poisson:0.4"|});
  Alcotest.(check bool) "and the queue series" true (contains a {|"queue"|});
  let capped = run { spec with total_ops = Some 30 } in
  match capped.workload with
  | Open (_, lo) -> Alcotest.(check int) "--total-ops pins the offered count" 30 lo.offered
  | Closed _ -> Alcotest.fail "ran closed loop"

let test_doom () =
  let spec = { closed with ops = 60; doom = true } in
  let o = run spec in
  let doomed, at =
    match o.session.doomed with Some d -> d | None -> Alcotest.fail "no shard doomed"
  in
  Alcotest.(check int) "the doomed shard holds key-0" (Store.shard_of_key o.session.store "key-0")
    doomed;
  Alcotest.(check bool) "it strikes 300 ticks after the preload" true (at >= 300);
  Alcotest.(check int) "no violation survives the audit" 0 o.violations;
  Alcotest.(check bool) "the doomed shard misses its SLO" false o.slo.ok;
  List.iter
    (fun (s : Slo.shard) ->
      if s.shard = doomed then Alcotest.(check bool) "the doomed shard aborts" true (s.aborts > 0)
      else begin
        Alcotest.(check int) (Printf.sprintf "healthy shard %d never aborts" s.shard) 0 s.aborts;
        Alcotest.(check bool)
          (Printf.sprintf "healthy shard %d is stable" s.shard)
          true
          (match Stabilization.shard_state o.session.stabilization s.shard with
          | Detector.Stabilized _ -> true
          | Detector.Pending -> false)
      end)
    o.slo.shards

(* `make artifacts` writes bench/sample-kv-metrics.json with these
   flags; the session must rebuild it byte for byte. *)
let test_sample_artifact () =
  let spec =
    {
      Kv_session.default with
      shards = 8;
      keys = 32;
      clients = 6;
      ops = 2000;
      seed = 9L;
      trace_level = Off;
      window = 50;
      fault_at = Some 400;
      fault_shards = 2;
    }
  in
  let ic = open_in_bin "../bench/sample-kv-metrics.json" in
  let committed = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "bench/sample-kv-metrics.json" committed (artifact spec (run spec) ^ "\n")

let test_hostile_specs () =
  let d = Kv_session.default in
  List.iter
    (fun (flag, spec) ->
      let built _ = Alcotest.failf "a spec with a bad %s built a store" flag in
      match Kv_session.run ~on_store:built ~on_start:ignore spec with
      | Ok _ -> Alcotest.failf "a spec with a bad %s ran" flag
      | Error e -> Alcotest.(check bool) (Printf.sprintf "%S names %s" e flag) true (contains e flag))
    [
      ("--shards", { d with shards = 0 });
      ("--keys", { d with keys = 0 });
      ("--stab-k", { d with stab_k = 0 });
      ("-n", { d with n = 5; f = 1 });
      ("--clients", { d with clients = 0 });
      ("--clients", { d with clients = -3 });
      ("--ops", { d with ops = -1 });
      ("--fault-shards", { d with fault_at = Some 10; fault_shards = 0 });
      ("--fault-shards", { d with fault_at = Some 10; fault_shards = 99 });
      ("--fault-at", { d with fault_at = Some 0 });
      ("--window", { d with window = -5 });
      ("--slo-p99", { d with slo = { d.slo with p99_ticks = -1.0 } });
      ("--slo-error-budget", { d with slo = { d.slo with error_budget = Float.nan } });
      ("--sample", { d with sample = 2.0 });
      ("--zipf", { d with zipf = Float.nan });
      ("--arrival", { d with arrival = Some (Loadgen.Const (-2.0)) });
      ("--total-ops", { d with arrival = Some (Loadgen.Poisson 1.0); total_ops = Some (-1) });
      ("--max-queue", { d with arrival = Some (Loadgen.Poisson 1.0); max_queue = 0 });
    ]

let suite =
  [
    Alcotest.test_case "closed-loop session" `Quick test_closed_loop;
    Alcotest.test_case "open-loop session" `Quick test_open_loop;
    Alcotest.test_case "--doom session: blast radius one shard" `Quick test_doom;
    Alcotest.test_case "sample flags rebuild the committed kv artifact" `Quick test_sample_artifact;
    Alcotest.test_case "hostile specs are typed errors naming the flag" `Quick test_hostile_specs;
  ]
