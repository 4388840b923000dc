(* The open-loop workload generator and its statistical test tier.

   The samplers are held to their target distributions with chi-squared
   goodness-of-fit tests over fixed seeds (deterministic: the asserted
   statistic never changes run to run; the alpha = 0.001 critical
   values say how surprising a failure would be if the draw were
   fresh).  The rest pins the generator's contracts: exact constant
   rates, schedule and full-run determinism across trace levels, typed
   spec errors instead of silent clamping, and the admission-queue
   accounting identities. *)

module Rng = Sbft_sim.Rng
module Series = Sbft_sim.Series
module Metrics = Sbft_sim.Metrics
module Names = Sbft_sim.Metric_names
module Engine = Sbft_sim.Engine
module J = Sbft_sim.Json
module Store = Sbft_kv.Store
module Workload = Sbft_harness.Workload
module Loadgen = Sbft_harness.Loadgen

let chi2 ~expected ~observed =
  let s = ref 0.0 in
  Array.iteri
    (fun i e ->
      let d = float_of_int observed.(i) -. e in
      s := !s +. (d *. d /. e))
    expected;
  !s

(* -- Zipfian sampler -------------------------------------------------- *)

let zipf_probs ~keys ~s =
  let w = Array.init keys (fun r -> 1.0 /. Float.pow (float_of_int (r + 1)) s) in
  let total = Array.fold_left ( +. ) 0.0 w in
  Array.map (fun x -> x /. total) w

let test_zipf_cdf_analytic () =
  let keys = 32 and s = 1.1 in
  let cdf = Workload.zipf_cdf ~keys ~s in
  let p = zipf_probs ~keys ~s in
  let acc = ref 0.0 in
  Array.iteri
    (fun i c ->
      acc := !acc +. p.(i);
      Alcotest.(check (float 1e-9)) (Printf.sprintf "cdf rank %d" i) !acc c)
    cdf;
  Alcotest.(check (float 1e-9)) "cdf reaches 1" 1.0 cdf.(keys - 1)

(* Chi-squared GOF of [zipf_pick] draws against the target pmf.
   df = 31; the alpha = 0.001 critical value is 61.098. *)
let zipf_gof ~seed ~s () =
  let keys = 32 and draws = 60_000 in
  let cdf = Workload.zipf_cdf ~keys ~s in
  let p = zipf_probs ~keys ~s in
  let rng = Rng.create seed in
  let observed = Array.make keys 0 in
  for _ = 1 to draws do
    let r = Workload.zipf_pick rng cdf in
    observed.(r) <- observed.(r) + 1
  done;
  let expected = Array.map (fun q -> q *. float_of_int draws) p in
  let x2 = chi2 ~expected ~observed in
  Alcotest.(check bool)
    (Printf.sprintf "chi2 %.1f below 61.1 (df=31, alpha=.001, seed %Ld, s=%g)" x2 seed s)
    true (x2 < 61.098)

let test_zipf_gof () =
  List.iter (fun seed -> zipf_gof ~seed ~s:1.1 ()) [ 3L; 5L; 7L ];
  (* s = 0 degenerates to uniform *)
  zipf_gof ~seed:11L ~s:0.0 ()

(* The sampler's domain boundaries: s = 0 and keys = 1 are defined (and
   exact), s < 0 / NaN / keys < 1 are rejected — never a clamped or
   NaN-poisoned CDF. *)
let test_zipf_boundaries () =
  (* s = 0: exactly uniform, cdf rank i = (i+1)/n with no float slack
     beyond the division itself *)
  let n = 7 in
  let cdf = Workload.zipf_cdf ~keys:n ~s:0.0 in
  Array.iteri
    (fun i c ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "uniform cdf rank %d" i)
        (float_of_int (i + 1) /. float_of_int n)
        c)
    cdf;
  (* keys = 1: the constant sampler — cdf [|1.0|], every draw rank 0 *)
  let one = Workload.zipf_cdf ~keys:1 ~s:1.1 in
  Alcotest.(check int) "singleton cdf length" 1 (Array.length one);
  Alcotest.(check (float 0.0)) "singleton cdf mass" 1.0 one.(0);
  let rng = Rng.create 13L in
  for _ = 1 to 1_000 do
    Alcotest.(check int) "singleton pick" 0 (Workload.zipf_pick rng one)
  done;
  (* rejections *)
  let rejects name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  rejects "keys = 0" (fun () -> Workload.zipf_cdf ~keys:0 ~s:1.1);
  rejects "keys < 0" (fun () -> Workload.zipf_cdf ~keys:(-3) ~s:1.1);
  rejects "s < 0" (fun () -> Workload.zipf_cdf ~keys:8 ~s:(-0.1));
  rejects "s NaN" (fun () -> Workload.zipf_cdf ~keys:8 ~s:Float.nan)

(* Structural soundness of the CDF across the whole accepted domain:
   strictly increasing, capped by 1, and the last entry is exactly the
   full mass — the invariants [zipf_pick]'s binary search relies on. *)
let qcheck_zipf_cdf_sound =
  QCheck.Test.make ~count:300 ~name:"loadgen: zipf cdf monotone in (0,1] for all keys>=1, s>=0"
    QCheck.(pair (int_range 1 200) (int_range 0 300))
    (fun (keys, centi_s) ->
      let s = float_of_int centi_s /. 100.0 in
      let cdf = Workload.zipf_cdf ~keys ~s in
      let ok = ref (Array.length cdf = keys) in
      let prev = ref 0.0 in
      Array.iter
        (fun c ->
          ok := !ok && c > !prev && c <= 1.0 +. 1e-9;
          prev := c)
        cdf;
      !ok && Float.abs (cdf.(keys - 1) -. 1.0) < 1e-9)

(* -- Poisson arrivals -------------------------------------------------- *)

(* Counts in disjoint unit tick intervals of a rate-lambda Poisson
   process are iid Poisson(lambda); [Loadgen.schedule] charges each
   continuous arrival to the unit interval that contains it, so the
   per-tick batch sizes must fit the Poisson pmf.  Cells 0..8 plus a
   pooled tail: df = 9, alpha = 0.001 critical value 27.877. *)
let test_poisson_gof () =
  let lambda = 3.0 and duration = 20_000 in
  let cells = 9 in
  let pmf =
    (* p_k = e^-lambda lambda^k / k!, built iteratively *)
    let p = Array.make cells 0.0 in
    p.(0) <- exp (-.lambda);
    for k = 1 to cells - 1 do
      p.(k) <- p.(k - 1) *. lambda /. float_of_int k
    done;
    p
  in
  let tail = 1.0 -. Array.fold_left ( +. ) 0.0 pmf in
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let slots = Loadgen.schedule ~rng ~duration (Loadgen.Poisson lambda) in
      let observed = Array.make (cells + 1) 0 in
      let occupied = ref 0 in
      List.iter
        (fun { Loadgen.at; batch } ->
          Alcotest.(check bool) "slot within span" true (at >= 1 && at <= duration);
          incr occupied;
          let cell = if batch >= cells then cells else batch in
          observed.(cell) <- observed.(cell) + 1)
        slots;
      observed.(0) <- duration - !occupied;
      let expected =
        Array.init (cells + 1) (fun k ->
            float_of_int duration *. if k = cells then tail else pmf.(k))
      in
      let x2 = chi2 ~expected ~observed in
      Alcotest.(check bool)
        (Printf.sprintf "chi2 %.1f below 27.9 (df=9, alpha=.001, seed %Ld)" x2 seed)
        true (x2 < 27.877))
    [ 3L; 5L; 7L ]

let total_arrivals slots = List.fold_left (fun acc s -> acc + s.Loadgen.batch) 0 slots

let test_const_rate_exact () =
  List.iter
    (fun (rate, duration) ->
      let rng = Rng.create 1L in
      let slots = Loadgen.schedule ~rng ~duration (Loadgen.Const rate) in
      let want = int_of_float (rate *. float_of_int duration) in
      let got = total_arrivals slots in
      Alcotest.(check bool)
        (Printf.sprintf "const:%g x %d yields %d (want %d +-1)" rate duration got want)
        true
        (abs (got - want) <= 1);
      (* slots strictly increasing at strictly positive ticks *)
      let prev = ref 0 in
      List.iter
        (fun { Loadgen.at; batch } ->
          Alcotest.(check bool) "slot advances" true (at > !prev);
          Alcotest.(check bool) "batch positive" true (batch > 0);
          prev := at)
        slots)
    [ (2.5, 1_000); (0.3, 5_000); (40.0, 200); (1.0, 1_000) ]

let test_ramp_shape () =
  let rng = Rng.create 1L in
  let a = 0.5 and b = 2.0 and duration = 2_000 in
  let slots = Loadgen.schedule ~rng ~duration (Loadgen.Ramp (a, b)) in
  let want = (a +. b) /. 2.0 *. float_of_int duration in
  let got = float_of_int (total_arrivals slots) in
  Alcotest.(check bool)
    (Printf.sprintf "ramp total %g within 5%% of %g" got want)
    true
    (Float.abs (got -. want) /. want < 0.05);
  (* the sweep is visible: the last tenth of the span is busier than
     the first tenth by roughly b/a *)
  let early = ref 0 and late = ref 0 in
  List.iter
    (fun { Loadgen.at; batch } ->
      if at <= duration / 10 then early := !early + batch
      else if at > duration * 9 / 10 then late := !late + batch)
    slots;
  Alcotest.(check bool)
    (Printf.sprintf "ramp rises (early %d, late %d)" !early !late)
    true
    (!late > 2 * !early)

(* The A = B edge of a ramp: [ramp:R..R] must be the same schedule as
   [const:R] — not statistically, not within tolerance, but the same
   list of slots, slot for slot.  [schedule] normalizes the degenerate
   ramp to [Const] up front, so this holds structurally; the test pins
   it across rates that exercise sub-tick gaps, multi-tick gaps, and
   exact-tick gaps, plus the one-tick-duration edge and the ops-cap
   interaction (the cap must bite at the same arrival either way). *)
let test_ramp_flat_equals_const () =
  let cases =
    [
      (2.5, 1_000, None);
      (0.3, 5_000, None);
      (40.0, 200, None);
      (1.0, 1_000, None) (* gap exactly 1.0: every arrival on a tick boundary *);
      (7.0, 1, None) (* one-tick duration: the whole run is the frac=0 edge *);
      (0.4, 1, None) (* one-tick duration, sub-unit rate: empty schedule *);
      (3.0, 10_000, Some 41) (* ops cap cuts the schedule mid-ramp *);
    ]
  in
  List.iter
    (fun (rate, duration, ops) ->
      let ramp = Loadgen.schedule ?ops ~rng:(Rng.create 1L) ~duration (Loadgen.Ramp (rate, rate)) in
      let const = Loadgen.schedule ?ops ~rng:(Rng.create 1L) ~duration (Loadgen.Const rate) in
      Alcotest.(check bool)
        (Printf.sprintf "ramp:%g..%g == const:%g over %d ticks (slot-for-slot)" rate rate rate
           duration)
        true (ramp = const))
    cases;
  (* and the one-tick edge is not vacuous for super-unit rates: the
     single in-range tick still carries its arrivals *)
  let slots = Loadgen.schedule ~rng:(Rng.create 1L) ~duration:1 (Loadgen.Ramp (7.0, 7.0)) in
  (* 7 * (1/7) accumulates to just under 1.0, so all 7 arrivals fit *)
  Alcotest.(check int) "duration=1 at rate 7 lands 7 arrivals in tick 1" 7 (total_arrivals slots);
  List.iter (fun { Loadgen.at; _ } -> Alcotest.(check int) "all in tick 1" 1 at) slots

let qcheck_ramp_flat_equals_const =
  QCheck.Test.make ~count:200 ~name:"loadgen: ramp:R..R == const:R slot-for-slot"
    QCheck.(pair (int_range 1 9999) (int_range 1 2_000))
    (fun (millirate, duration) ->
      let rate = float_of_int millirate /. 100.0 in
      Loadgen.schedule ~rng:(Rng.create 1L) ~duration (Loadgen.Ramp (rate, rate))
      = Loadgen.schedule ~rng:(Rng.create 1L) ~duration (Loadgen.Const rate))

let test_ops_cap () =
  let rng = Rng.create 5L in
  let slots = Loadgen.schedule ~ops:37 ~rng ~duration:100_000 (Loadgen.Poisson 0.7) in
  Alcotest.(check int) "cap pins the arrival count" 37 (total_arrivals slots)

(* Same seed, same process: bit-identical schedules — a QCheck property
   over seeds and rates, not just one golden pair. *)
let qcheck_schedule_deterministic =
  QCheck.Test.make ~name:"loadgen: schedule is a pure function of (seed, process)" ~count:100
    QCheck.(pair small_nat (int_range 1 500))
    (fun (seed, centirate) ->
      let rate = float_of_int centirate /. 10.0 in
      let mk () = Rng.create (Int64.of_int seed) in
      let s1 = Loadgen.schedule ~rng:(mk ()) ~duration:300 (Loadgen.Poisson rate) in
      let s2 = Loadgen.schedule ~rng:(mk ()) ~duration:300 (Loadgen.Poisson rate) in
      s1 = s2)

(* -- the arrival syntax --------------------------------------------- *)

(* The parser inverts the printer on every printed form (the printer's
   %g may round a rate, so the property is stated on strings); a printed
   form cut short parses or is the typed [Invalid_arrival] naming it,
   never an exception. *)
let qcheck_arrival_round_trip =
  let rate =
    QCheck.Gen.(
      map
        (fun (m, e) -> float_of_int m *. (10.0 ** float_of_int e))
        (pair (int_range (-5000) 5000) (int_range (-6) 6)))
  in
  let arrival =
    QCheck.Gen.(
      oneof
        [
          map (fun r -> Loadgen.Poisson r) rate;
          map (fun r -> Loadgen.Const r) rate;
          map2 (fun a b -> Loadgen.Ramp (a, b)) rate rate;
        ])
  in
  QCheck.Test.make ~count:500 ~name:"loadgen: arrival parser inverts arrival_to_string"
    (QCheck.make
       ~print:(fun (a, cut) -> Printf.sprintf "%s cut at %d" (Loadgen.arrival_to_string a) cut)
       QCheck.Gen.(pair arrival small_nat))
    (fun (a, cut) ->
      let s = Loadgen.arrival_to_string a in
      let t = String.sub s 0 (min cut (String.length s)) in
      (match Loadgen.arrival_of_string s with
      | Ok b -> Loadgen.arrival_to_string b = s
      | Error _ -> false)
      &&
      match Loadgen.arrival_of_string t with
      | Ok _ -> true
      | Error (Loadgen.Invalid_arrival got) -> got = t
      | Error _ -> false)

let test_arrival_malformed () =
  List.iter
    (fun s ->
      match Loadgen.arrival_of_string s with
      | Error (Loadgen.Invalid_arrival got) -> Alcotest.(check string) "names the input" s got
      | Error e -> Alcotest.failf "%S: unexpected error %s" s (Loadgen.error_to_string e)
      | Ok a -> Alcotest.failf "%S parsed as %s" s (Loadgen.arrival_to_string a))
    [ ""; "poisson"; "poisson:"; "poisson:x"; "const:1:2"; "ramp:1"; "ramp:1.."; "ramp:..2";
      "ramp:1..2..3"; "burst:4"; ":4"; "POISSON:1" ]

(* -- typed spec errors ------------------------------------------------- *)

let check_invalid name spec expect =
  match Loadgen.validate spec with
  | Error e -> Alcotest.(check bool) name true (expect e)
  | Ok () -> Alcotest.fail (name ^ ": validate accepted a bad spec")

let test_typed_errors () =
  let open Loadgen in
  check_invalid "zero rate" { default with mode = Open_loop (Const 0.0) } (function
    | Invalid_rate _ -> true
    | _ -> false);
  check_invalid "nan rate" { default with mode = Open_loop (Poisson Float.nan) } (function
    | Invalid_rate _ -> true
    | _ -> false);
  check_invalid "super-tick rate is unrepresentable, not clamped"
    { default with mode = Open_loop (Const (2.0 *. max_rate)) } (function
    | Rate_unrepresentable { rate; max } -> rate = 2.0 *. max_rate && max = max_rate
    | _ -> false);
  check_invalid "ramp checks both endpoints"
    { default with mode = Open_loop (Ramp (1.0, -3.0)) } (function
    | Invalid_rate r -> r = -3.0
    | _ -> false);
  check_invalid "zero duration" { default with duration = 0 } (function
    | Invalid_duration _ -> true
    | _ -> false);
  check_invalid "mix above 1" { default with write_ratio = 1.5 } (function
    | Invalid_mix _ -> true
    | _ -> false);
  check_invalid "queue cap 0" { default with max_queue = 0 } (function
    | Invalid_queue_cap _ -> true
    | _ -> false);
  check_invalid "zero keys" { default with keys = 0 } (function
    | Invalid_keys _ -> true
    | _ -> false);
  check_invalid "negative zipf exponent" { default with zipf_s = -0.5 } (function
    | Invalid_zipf s -> s = -0.5
    | _ -> false);
  check_invalid "NaN zipf exponent" { default with zipf_s = Float.nan } (function
    | Invalid_zipf s -> Float.is_nan s
    | _ -> false);
  (* the same errors surface as exceptions from run and schedule *)
  let store = Store.create ~seed:3L ~trace_level:Sbft_sim.Trace.Off ~shards:2 ~n:6 ~f:1 ~clients:2 () in
  Alcotest.check_raises "run raises Invalid"
    (Invalid (Invalid_rate 0.0))
    (fun () -> ignore (run ~spec:{ default with mode = Open_loop (Poisson 0.0) } store));
  Alcotest.check_raises "schedule raises on a super-tick rate"
    (Invalid (Rate_unrepresentable { rate = 1_000_000.0; max = max_rate }))
    (fun () -> ignore (schedule ~rng:(Rng.create 1L) ~duration:10 (Const 1_000_000.0)))

(* -- full-run accounting ----------------------------------------------- *)

let mk_store ?series_window ?(shards = 4) ?(clients = 6) ?(seed = 9L) () =
  Store.create ~seed ~trace_level:Sbft_sim.Trace.Off ?series_window ~shards ~n:6 ~f:1 ~clients ()

let test_accounting_identities () =
  (* deliberately overloaded: a tiny client pool against a brisk rate
     and a shallow queue, so rejection and queueing are both exercised *)
  let store = mk_store ~shards:2 ~clients:2 () in
  let spec =
    {
      Loadgen.default with
      Loadgen.mode = Loadgen.Open_loop (Loadgen.Const 5.0);
      duration = 300;
      keys = 8;
      max_queue = 16;
    }
  in
  let o = Loadgen.run ~spec store in
  Alcotest.(check int) "offered = accepted + rejected" o.Loadgen.offered
    (o.Loadgen.accepted + o.Loadgen.rejected);
  Alcotest.(check bool) "overload sheds load" true (o.Loadgen.rejected > 0);
  Alcotest.(check int) "every accepted op answers" o.Loadgen.accepted
    (o.Loadgen.completed + o.Loadgen.incomplete);
  Alcotest.(check int) "puts + gets = completed" o.Loadgen.completed
    (o.Loadgen.completed_puts + o.Loadgen.completed_gets);
  let sum f = Array.fold_left (fun acc c -> acc + f c) 0 o.Loadgen.per_shard in
  Alcotest.(check int) "per-shard offered sums" o.Loadgen.offered (sum (fun c -> c.Loadgen.s_offered));
  Alcotest.(check int) "per-shard accepted sums" o.Loadgen.accepted
    (sum (fun c -> c.Loadgen.s_accepted));
  Alcotest.(check int) "per-shard rejected sums" o.Loadgen.rejected
    (sum (fun c -> c.Loadgen.s_rejected));
  Alcotest.(check int) "per-shard completed sums" o.Loadgen.completed
    (sum (fun c -> c.Loadgen.s_completed));
  Array.iter
    (fun c ->
      Alcotest.(check bool) "shard peak within cap" true (c.Loadgen.s_peak_queue <= spec.Loadgen.max_queue))
    o.Loadgen.per_shard;
  (* the flushed engine counters agree with the outcome *)
  let m = Engine.metrics (Store.engine store) in
  Array.iteri
    (fun shard c ->
      Alcotest.(check int)
        (Printf.sprintf "shard %d offered counter" shard)
        c.Loadgen.s_offered
        (Metrics.get m (Names.kv_shard ~shard Names.Shard_offered)))
    o.Loadgen.per_shard;
  (* queue wait was recorded once per dispatched op, e2e once per completion *)
  (match Metrics.histogram m Names.loadgen_queue_wait_ticks with
  | None -> Alcotest.fail "queue-wait histogram missing"
  | Some h -> Alcotest.(check int) "queue-wait samples = accepted" o.Loadgen.accepted h.Metrics.count);
  let e2e_total =
    Array.to_list o.Loadgen.per_shard
    |> List.mapi (fun shard _ ->
           match Metrics.histogram m (Names.kv_shard ~shard Names.Shard_e2e_ticks) with
           | None -> 0
           | Some h -> h.Metrics.count)
    |> List.fold_left ( + ) 0
  in
  Alcotest.(check int) "e2e samples = completed" o.Loadgen.completed e2e_total

let test_queue_series_arming () =
  let run ?series_window () =
    let store = mk_store ?series_window () in
    let spec =
      {
        Loadgen.default with
        Loadgen.mode = Loadgen.Open_loop (Loadgen.Poisson 0.8);
        duration = 400;
        keys = 16;
      }
    in
    Loadgen.run ~spec store
  in
  let off = run () in
  Alcotest.(check int) "series stay dark when the store's are off" 0
    (Array.length off.Loadgen.queue_series);
  let on = run ~series_window:50 () in
  Alcotest.(check int) "one queue series per shard" 4 (Array.length on.Loadgen.queue_series);
  Array.iteri
    (fun shard s ->
      Alcotest.(check string)
        (Printf.sprintf "series %d named" shard)
        (Names.kv_shard ~shard Names.Shard_queue)
        (Series.name s);
      Alcotest.(check int) "window rides the store's" 50 (Series.window s))
    on.Loadgen.queue_series

(* Same seed + spec => identical outcome and artifact, at every trace
   level: the generator listens only to the virtual clock and its split
   RNG stream, never to the tracing dial. *)
let test_run_determinism_across_trace_levels () =
  let run level =
    let store =
      Store.create ~seed:9L ~trace_level:level ~shards:4 ~n:6 ~f:1 ~clients:6 ()
    in
    let spec =
      {
        Loadgen.default with
        Loadgen.mode = Loadgen.Open_loop (Loadgen.Poisson 0.8);
        duration = 400;
        keys = 16;
        max_queue = 64;
      }
    in
    let o = Loadgen.run ~spec store in
    (J.to_string (Loadgen.to_json ~spec o), o.Loadgen.completed)
  in
  let j_off, c_off = run Sbft_sim.Trace.Off in
  let j_sampled, c_sampled = run Sbft_sim.Trace.Sampled in
  let j_on, c_on = run Sbft_sim.Trace.On in
  Alcotest.(check bool) "completed something" true (c_off > 0);
  Alcotest.(check int) "off = sampled (completed)" c_off c_sampled;
  Alcotest.(check int) "off = on (completed)" c_off c_on;
  Alcotest.(check string) "off = sampled (artifact)" j_off j_sampled;
  Alcotest.(check string) "off = on (artifact)" j_off j_on;
  (* and twice at the same level is bit-identical too *)
  let j_again, _ = run Sbft_sim.Trace.Off in
  Alcotest.(check string) "same seed, same artifact" j_off j_again

let suite =
  [
    Alcotest.test_case "zipf cdf matches the analytic weights" `Quick test_zipf_cdf_analytic;
    Alcotest.test_case "zipf sampler passes chi-squared GOF" `Quick test_zipf_gof;
    Alcotest.test_case "zipf boundaries: s=0 and keys=1 defined, rest rejected" `Quick
      test_zipf_boundaries;
    QCheck_alcotest.to_alcotest qcheck_zipf_cdf_sound;
    Alcotest.test_case "poisson per-tick batches pass chi-squared GOF" `Quick test_poisson_gof;
    Alcotest.test_case "constant rate is exact" `Quick test_const_rate_exact;
    Alcotest.test_case "ramp sweeps the rate" `Quick test_ramp_shape;
    Alcotest.test_case "flat ramp == const, slot for slot" `Quick test_ramp_flat_equals_const;
    QCheck_alcotest.to_alcotest qcheck_ramp_flat_equals_const;
    Alcotest.test_case "ops cap pins the schedule" `Quick test_ops_cap;
    QCheck_alcotest.to_alcotest qcheck_schedule_deterministic;
    QCheck_alcotest.to_alcotest qcheck_arrival_round_trip;
    Alcotest.test_case "malformed arrival strings are typed errors" `Quick test_arrival_malformed;
    Alcotest.test_case "typed errors, never a silent clamp" `Quick test_typed_errors;
    Alcotest.test_case "admission accounting identities" `Quick test_accounting_identities;
    Alcotest.test_case "queue series arm with the store's" `Quick test_queue_series_arming;
    Alcotest.test_case "bit-identical runs at every trace level" `Quick
      test_run_determinism_across_trace_levels;
  ]
