(* The repository benchmark: one workload per process.

     suite.exe --workload NAME [--seed S] [--seconds T] [--trace 0|1]
               [--scale X] [--json OUT]

   A run repeats one fixed round of the workload, built from the seed,
   until [--seconds] have elapsed (and at least [min_rounds] times),
   then reports medians over the rounds.  Every round of a run is the
   same simulation, so its digest must repeat exactly: the determinism
   contract is checked on every run.  With [--trace 1], plain and
   instrumented rounds alternate; the instrumented ones give the
   per-layer split and the plain ones the baseline it is compared to.

   Every metric is printed as [name value unit]; the last line of
   standard output is one JSON object carrying the end-to-end metrics
   ([--trace 0]) or the per-layer metrics ([--trace 1]).  The exit code
   is 1 when a correctness check fails and 2 on a usage error.
   README.md lists the workloads, the metrics and their bounds. *)

module Engine = Sbft_sim.Engine
module Trace = Sbft_sim.Trace
module Profile = Sbft_sim.Profile
module Metrics = Sbft_sim.Metrics
module Names = Sbft_sim.Metric_names
module Coverage = Sbft_sim.Coverage
module Detector = Sbft_sim.Series.Detector
module Json = Sbft_sim.Json
module Rng = Sbft_sim.Rng
module Store = Sbft_kv.Store
module System = Sbft_core.System
module Server = Sbft_core.Server
module Fault_plan = Sbft_byz.Fault_plan
module Sbls = Sbft_labels.Sbls
module Wtsg = Sbft_labels.Wtsg
module Mw_ts = Sbft_labels.Mw_ts
module History = Sbft_spec.History
module Regularity = Sbft_spec.Regularity
module Loadgen = Sbft_harness.Loadgen
module Stabilization = Sbft_harness.Stabilization
module Fuzz = Sbft_harness.Fuzz
module Scenario = Sbft_harness.Scenario
module Stats = Sbft_harness.Stats
module Clock = Sbft_harness.Clock

(* -- workloads --------------------------------------------------------- *)

(* Every kv workload runs n = 6, f = 1 register groups under Zipf 1.1
   with 30% puts, fed open-loop by Poisson arrivals. *)
let n = 6
let f = 1
let zipf_s = 1.1
let write_ratio = 0.3

type kv = {
  shards : int;
  clients : int;
  keys : int;
  rate : float;  (** offered ops per virtual tick *)
  ops : int;  (** offered ops per round *)
  faulted : bool;
      (** shards 0-3 heavily corrupted [fault_delay] after setup,
          series and stabilization detector on, sampled trace *)
}

(* 2000 ticks into a full-size round, so a scaled-down round still
   runs past its fault. *)
let fault_delay (w : kv) = max 1 (w.ops / 15)
let faulted_shards = 4
let series_window = 100
let stab_k = 3

(* One domain per core of the 2-core reference host. *)
let fuzz_domains = 2

(* [Fuzz.run]'s own per-schedule event budget, repeated on replay so a
   replayed schedule ends exactly where the campaign's did. *)
let fuzz_max_events = 4_000_000

type workload =
  | Kv of kv
  | Fuzz_campaigns of {
      campaigns : int;  (** per round *)
      iterations : int;  (** per campaign and domain *)
    }

(* A round takes about a second on the reference host, so a 10 s run
   gives its medians ten or so samples. *)
let workloads =
  [
    ( "kv-steady",
      Kv { shards = 16; clients = 64; keys = 256; rate = 1.0; ops = 30_000; faulted = false } );
    ( "kv-wide",
      Kv { shards = 64; clients = 64; keys = 1024; rate = 2.0; ops = 30_000; faulted = false } );
    ( "kv-faulted",
      Kv { shards = 16; clients = 64; keys = 256; rate = 1.0; ops = 30_000; faulted = true } );
    ("fuzz", Fuzz_campaigns { campaigns = 12; iterations = 25 });
  ]

let scaled scale v = max 1 (int_of_float (Float.round (float_of_int v *. scale)))

let scale_workload scale = function
  | Kv k -> Kv { k with ops = scaled scale k.ops; keys = scaled scale k.keys }
  | Fuzz_campaigns c -> Fuzz_campaigns { c with campaigns = scaled scale c.campaigns }

(* -- metrics and checks ------------------------------------------------- *)

(* [E2e] and [Layer] metrics are the ones BENCHMARK.json names: the
   result line carries the former on untraced runs and the latter on
   traced ones.  [Other] metrics are only printed (and written by
   [--json]). *)
type kind = E2e | Layer | Other

let metrics : (kind * string * float * string) list ref = ref []
let emit kind name unit_ value = metrics := (kind, name, value, unit_) :: !metrics

let failures : string list ref = ref []
let check ok what = if not ok then failures := what :: !failures

let fi = float_of_int
let ratio a b = if b = 0.0 then 0.0 else a /. b

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let m = Array.length a in
      if m mod 2 = 1 then a.(m / 2) else (a.((m / 2) - 1) +. a.(m / 2)) /. 2.0

let now_ns () = Int64.to_int (Clock.now_ns ())
let seconds_since t0 = fi (now_ns () - t0) *. 1e-9

let timed f =
  let t0 = now_ns () in
  let v = f () in
  (v, seconds_since t0)

let allocated (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words

(* The heap's high-water mark after the first round: one round's peak,
   independent of how many rounds the time budget allows. *)
let first_round_top_heap = ref 0

(* Repeat [round] until [seconds] have elapsed and at least [min_rounds]
   rounds ran.  A full collection before each round keeps the previous
   round's garbage out of its timings. *)
let repeat ~seconds ~min_rounds round =
  let t0 = now_ns () in
  let rec go i acc =
    if i >= min_rounds && seconds_since t0 >= seconds then List.rev acc
    else begin
      Gc.full_major ();
      let r = round i in
      if i = 0 then first_round_top_heap := (Gc.quick_stat ()).top_heap_words;
      go (i + 1) (r :: acc)
    end
  in
  go 0 []

(* A run time robust to host contention: each segment's median duration
   over the rounds, summed.  A stall that hits a segment in a minority
   of rounds drops out; work that every round does stays in. *)
let segmented_time = function
  | [] -> 0.0
  | first :: _ as rounds ->
      let total = ref 0.0 in
      Array.iteri
        (fun j _ -> total := !total +. median (List.map (fun r -> r.(j)) rounds))
        first;
      !total

(* -- shared instruments ------------------------------------------------- *)

type digest = { events : int; sent : int; vtime : int; completed : int; coverage : int }

let emit_digest d =
  emit Other "sim.events_fired" "count" (fi d.events);
  emit Other "sim.net_sent" "count" (fi d.sent);
  emit Other "sim.final_vtime" "ticks" (fi d.vtime);
  emit Other "sim.completed" "count" (fi d.completed);
  emit Other "sim.coverage_keys" "count" (fi d.coverage)

(* A trace sink folding events into a coverage set and counting them. *)
type sink_stats = { cov : Coverage.t; mutable seen : int }

let sink_stats () = { cov = Coverage.create (); seen = 0 }

let sink s ~time:(_ : int) ev =
  s.seen <- s.seen + 1;
  Coverage.observe s.cov ev

(* Wraps every server of a register deployment to count [Server.handle]
   calls and their wall time.  The wrapper delegates to the correct
   automaton, so the simulation is unchanged. *)
type handle_timer = { mutable handles : int; mutable handle_ns : int }

let wrap_servers timer sys =
  for id = 0 to (System.config sys).n - 1 do
    let s = System.server sys id in
    System.replace_server_handler sys id (fun ~src m ->
        let t0 = now_ns () in
        Server.handle s ~src m;
        timer.handle_ns <- timer.handle_ns + (now_ns () - t0);
        timer.handles <- timer.handles + 1)
  done

let profiled (r : Profile.report) = List.fold_left (fun acc (_, _, s) -> acc +. s) 0.0 r.phase_rows

let emit_shares (reports : Profile.report list) =
  let wall = List.fold_left (fun acc (r : Profile.report) -> acc +. r.wall_s) 0.0 reports in
  let share label =
    let self =
      List.fold_left
        (fun acc (r : Profile.report) ->
          List.fold_left
            (fun acc (l, _, s) -> if l = label then acc +. s else acc)
            acc r.phase_rows)
        0.0 reports
    in
    ratio self wall
  in
  emit Layer "engine.other_share" "ratio" (share "other");
  emit Layer "network.delivery_share" "ratio" (share "delivery");
  emit Layer "server.share" "ratio" (share "server_step");
  emit Layer "client.share" "ratio" (share "client_step")

let emit_not_exercised names = List.iter (fun (name, unit_) -> emit Layer name unit_ 0.0) names

(* Median ns per call over five batches of [calls] calls. *)
let ns_per_call ~calls f =
  median
    (List.init 5 (fun _ ->
         let (), s =
           timed (fun () ->
               for _ = 1 to calls do
                 f ()
               done)
         in
         s *. 1e9 /. fi calls))

(* Label operations called directly at k = n. *)
let labels_layer ~seed =
  let sys = Sbls.system ~k:n in
  let rng = Rng.create (Int64.of_int seed) in
  let inputs = List.init n (fun _ -> Sbls.random sys rng) in
  (* One read's union graph: every server reports its current pair and
     [n] older ones. *)
  let witnesses =
    List.concat_map
      (fun server ->
        List.init (n + 1) (fun rank ->
            { Wtsg.server; value = 100 + rank; ts = Mw_ts.random sys rng ~clients:4; rank }))
      (List.init n Fun.id)
  in
  emit Layer "labels.sbls_next_ns" "ns"
    (ns_per_call ~calls:20_000 (fun () -> ignore (Sys.opaque_identity (Sbls.next sys inputs))));
  emit Layer "labels.wtsg_best_ns" "ns"
    (ns_per_call ~calls:2_000 (fun () ->
         let g = Wtsg.build witnesses in
         ignore (Sys.opaque_identity (Wtsg.best g ~min_weight:((2 * f) + 1)))))

(* -- kv workloads -------------------------------------------------------- *)

type layers = {
  profile : Profile.report;
  timer : handle_timer;
  stab_ns : int;
  words : float;  (** allocated during the load run *)
  majors : int;  (** major collections during the load run *)
  heap_words : int;  (** reachable from the store after setup; 0 when not measured *)
  attributed : float;  (** share of the round's wall time the timers cover *)
}

type kv_round = {
  setup_s : float;
  segments : float array;  (** [Loadgen.run]'s wall time, split every [ops / 50] answers *)
  audit_times : float list;  (** three audits *)
  o : Loadgen.outcome;
  digest : digest;
  run_events : int;
  run_sent : int;
  lat : int array;  (** successful ops per virtual-tick latency *)
  checked : int;
  violations : int;
  violation_list : (int * string) list;  (** shard and report line, round 0 only *)
  sink_events : int;
  tts : (int * Detector.state * int option) list;  (** per faulted shard *)
  pending_ticks : int;  (** what a still-pending shard counts as *)
  qwait_p99 : float;
  layers : layers option;  (** instrumented rounds only *)
}

let key i = Printf.sprintf "key-%d" i

(* Each violation's shard and a line with the read ids a fix needs; a
   key's audit suffix starts where [Store.check_regular] starts it. *)
let violation_list ~after systems =
  List.concat_map
    (fun (k, shard, sys) ->
      let h = System.history sys in
      let scrub =
        List.fold_left
          (fun acc -> function
            | History.Write { inv; resp = Some r; _ } when inv >= after -> min acc r
            | _ -> acc)
          max_int (History.ops h)
      in
      let r = Regularity.check ~after:scrub ~ts_prec:Mw_ts.prec h in
      List.map
        (fun (v : Regularity.violation) ->
          ( shard,
            Printf.sprintf "violation key=%s shard=%d writes=%d read=%d kind=%s ops=[%s] %s"
              (key k) shard
              (List.length (History.writes h))
              v.read_id (Scenario.violation_kind v)
              (String.concat "," (List.map string_of_int v.ops))
              v.detail ))
        r.violations)
    systems

let kv_round (w : kv) ~seed ~instrument ~measure_heap ~details =
  let round_t0 = now_ns () in
  let (st, systems), setup_s =
    timed (fun () ->
        let st =
          Store.create ~seed:(Int64.of_int seed)
            ~trace_level:(if w.faulted then Trace.Sampled else Trace.Off)
            ?series_window:(if w.faulted then Some series_window else None)
            ~shards:w.shards ~n ~f ~clients:w.clients ()
        in
        (* Setup creates key i's register i-th, so the creation index
           names each register. *)
        let systems = ref [] and created = ref 0 in
        for shard = 0 to w.shards - 1 do
          Store.apply_to_shard st ~shard (fun sys ->
              systems := (!created, shard, sys) :: !systems;
              incr created)
        done;
        for i = 0 to w.keys - 1 do
          Store.put st ~client:(i mod w.clients) ~key:(key i) ~value:(i + 1) ()
        done;
        Store.quiesce st;
        (st, List.rev !systems))
  in
  let engine = Store.engine st in
  let m = Engine.metrics engine in
  let t_instr = now_ns () in
  let heap_words = if measure_heap then Obj.reachable_words (Obj.repr st) else 0 in
  let stats = sink_stats () in
  Trace.add_sink (Engine.trace engine) (sink stats);
  let lat = ref (Array.make 64 0) in
  Store.add_observer st (fun ~shard:_ ~time:_ ~ok ~ticks ->
      if ok then begin
        if ticks >= Array.length !lat then begin
          let a = Array.make (2 * (ticks + 1)) 0 in
          Array.blit !lat 0 a 0 (Array.length !lat);
          lat := a
        end;
        !lat.(ticks) <- !lat.(ticks) + 1
      end);
  let per_segment = max 1 (w.ops / 50) in
  let marks = ref [] and answered = ref 0 in
  Store.add_observer st (fun ~shard:_ ~time:_ ~ok:_ ~ticks:_ ->
      incr answered;
      if !answered mod per_segment = 0 then marks := now_ns () :: !marks);
  let fault_at = Engine.now engine + fault_delay w in
  let stab_ns = ref 0 and stab_t0 = ref 0 in
  let stab =
    if not w.faulted then None
    else begin
      Engine.schedule engine ~delay:(fault_delay w) (fun () ->
          for shard = 0 to faulted_shards - 1 do
            Store.apply_to_shard st ~shard (fun sys ->
                System.corrupt_everything sys ~severity:`Heavy)
          done);
      (* Observers run in registration order, so the two registered
         around [Stabilization.attach] time the detector alone. *)
      if instrument then
        Store.add_observer st (fun ~shard:_ ~time:_ ~ok:_ ~ticks:_ -> stab_t0 := now_ns ());
      let s = Stabilization.attach ~k:stab_k ~window:series_window ~after:fault_at st in
      if instrument then
        Store.add_observer st (fun ~shard:_ ~time:_ ~ok:_ ~ticks:_ ->
            stab_ns := !stab_ns + (now_ns () - !stab_t0));
      Some s
    end
  in
  let timer = { handles = 0; handle_ns = 0 } in
  if instrument then
    for shard = 0 to w.shards - 1 do
      Store.apply_to_shard st ~shard (wrap_servers timer)
    done;
  let spec =
    {
      Loadgen.default with
      mode = Loadgen.Open_loop (Loadgen.Poisson w.rate);
      (* long enough that the op cap, not the span, ends the arrivals *)
      duration = (2 * int_of_float (fi w.ops /. w.rate)) + 100;
      ops = Some w.ops;
      write_ratio;
      keys = w.keys;
      zipf_s;
      value_base = w.keys + 1;
    }
  in
  let prof = Engine.profile engine in
  let events0 = Engine.events_fired engine and sent0 = Metrics.get m Names.net_sent in
  let gc0 = Gc.quick_stat () in
  let instr_s = seconds_since t_instr in
  if instrument then Profile.enable prof;
  let t_run = now_ns () in
  let o = Loadgen.run ~spec st in
  let t_end = now_ns () in
  let report = if instrument then Some (Profile.report prof) else None in
  let run_s = fi (t_end - t_run) *. 1e-9 in
  let bounds = Array.of_list ((t_run :: List.rev !marks) @ [ t_end ]) in
  let segments =
    Array.init (Array.length bounds - 1) (fun i -> fi (bounds.(i + 1) - bounds.(i)) *. 1e-9)
  in
  let t_post = now_ns () in
  let gc1 = Gc.quick_stat () in
  let vtime = Engine.now engine in
  let tts =
    match stab with
    | None -> []
    | Some s ->
        Stabilization.finalize s ~now:vtime;
        List.init faulted_shards (fun shard ->
            (shard, Stabilization.shard_state s shard, Stabilization.time_to_stabilize s shard))
  in
  let after = if w.faulted then fault_at else 0 in
  let audits = List.init 3 (fun _ -> timed (fun () -> Store.check_regular ~after st)) in
  let checked, violations = fst (List.hd audits) in
  List.iter (fun (r, _) -> check (r = (checked, violations)) "three audits agree") audits;
  let qwait_p99 =
    match Metrics.histogram m Names.loadgen_queue_wait_ticks with
    | Some h -> fst (Stats.hist_percentile_resolved h 0.99)
    | None -> 0.0
  in
  let digest =
    {
      events = Engine.events_fired engine;
      sent = Metrics.get m Names.net_sent;
      vtime;
      completed = o.completed;
      coverage = Coverage.cardinal stats.cov;
    }
  in
  let post_s = seconds_since t_post in
  Printf.printf "round setup_s=%.4f run_s=%.4f ops_per_s=%.0f instrumented=%b\n%!" setup_s run_s
    (fi o.completed /. run_s) instrument;
  let layers =
    Option.map
      (fun r ->
        {
          profile = r;
          timer;
          stab_ns = !stab_ns;
          words = allocated gc1 -. allocated gc0;
          majors = gc1.major_collections - gc0.major_collections;
          heap_words;
          attributed = (setup_s +. instr_s +. profiled r +. post_s) /. seconds_since round_t0;
        })
      report
  in
  {
    setup_s;
    segments;
    audit_times = List.map snd audits;
    o;
    digest;
    run_events = digest.events - events0;
    run_sent = digest.sent - sent0;
    lat = !lat;
    checked;
    violations;
    violation_list = (if details && violations > 0 then violation_list ~after systems else []);
    sink_events = stats.seen;
    tts;
    pending_ticks = vtime - fault_at;
    qwait_p99;
    layers;
  }

(* The [p]-quantile of a per-tick count histogram. *)
let tick_percentile counts p =
  let total = Array.fold_left ( + ) 0 counts in
  let rank = max 1 (int_of_float (Float.ceil (p *. fi total))) in
  let rec go i acc =
    if i >= Array.length counts - 1 || acc + counts.(i) >= rank then i
    else go (i + 1) (acc + counts.(i))
  in
  go 0 0

(* Returns (attempted, failed) for one round.  Every round offers the
   same seed-fixed ops, so the counts depend on the seed alone, not on
   how many rounds the time budget allowed. *)
let run_kv (w : kv) ~seed ~seconds ~traced =
  let rounds =
    repeat ~seconds ~min_rounds:(if traced then 4 else 3) (fun i ->
        let instrument = traced && i mod 2 = 1 in
        kv_round w ~seed ~instrument ~measure_heap:(instrument && i = 1) ~details:(i = 0))
  in
  let first = List.hd rounds in
  let o = first.o in
  List.iter
    (fun r -> check (r.digest = first.digest) "every round repeats the first round's sim digest")
    rounds;
  check (o.offered = o.accepted + o.rejected) "offered = accepted + rejected";
  check (o.accepted = o.completed + o.incomplete) "accepted = completed + incomplete";
  check (not o.livelocked) "the load run drains before its event budget";
  check
    (List.length first.violation_list = first.violations)
    "the per-key audit agrees with Store.check_regular";
  (* Fault-free shards are only counted: their rare stale reads on the
     hottest keys are a known protocol defect, not a stabilization
     failure. *)
  if w.faulted then
    check
      (List.for_all (fun (shard, _) -> shard >= faulted_shards) first.violation_list)
      "the post-fault suffix audit finds 0 violations on the faulted shards";
  List.iter (fun (_, line) -> print_endline line) first.violation_list;
  List.iter
    (fun (shard, state, tts) ->
      (match (state, tts) with
      | Detector.Stabilized _, Some t -> check (t >= 0) "time to stabilize is not negative"
      | Detector.Pending, None -> ()
      | _ ->
          check false (Printf.sprintf "faulted shard %d stabilizes or is reported pending" shard));
      Printf.printf "stabilization shard=%d %s\n" shard
        (match tts with Some t -> Printf.sprintf "stabilized tts=%d" t | None -> "pending"))
    first.tts;
  let plain = List.filter (fun r -> r.layers = None) rounds in
  let med f = median (List.map f plain) in
  emit E2e "setup_s" "s" (med (fun r -> r.setup_s));
  let plain_run_s = segmented_time (List.map (fun r -> r.segments) plain) in
  emit E2e "ops_per_s" "1/s" (fi o.completed /. plain_run_s);
  (* Every round audits the same history, so all passes pool. *)
  let audit_s = median (List.concat_map (fun r -> r.audit_times) plain) in
  emit E2e "audit_reads_per_s" "1/s" (fi first.checked /. audit_s);
  emit Other "audit_s" "s" audit_s;
  let failed = o.rejected + o.aborted + o.incomplete in
  emit Other "failed_frac" "ratio" (ratio (fi failed) (fi o.offered));
  emit Other "op_p50_ticks" "ticks" (fi (tick_percentile first.lat 0.50));
  emit Other "op_p999_ticks" "ticks" (fi (tick_percentile first.lat 0.999));
  emit Other "op_latency_samples" "count" (fi (Array.fold_left ( + ) 0 first.lat));
  if w.faulted then
    emit Other "tts_max_ticks" "ticks"
      (fi
         (List.fold_left
            (fun acc (_, _, t) -> max acc (Option.value t ~default:first.pending_ticks))
            0 first.tts));
  emit Other "audit_violations" "count" (fi first.violations);
  emit Other "audit_reads" "count" (fi first.checked);
  emit_digest first.digest;
  if traced then begin
    let inst = List.filter_map (fun r -> Option.map (fun l -> (r, l)) r.layers) rounds in
    let lmed f = median (List.map f inst) in
    let ops = fi o.completed in
    let heap_words = List.fold_left (fun acc (_, l) -> max acc l.heap_words) 0 inst in
    emit Layer "engine.events_per_op" "count" (fi first.run_events /. ops);
    emit Layer "engine.ns_per_event" "ns" (plain_run_s *. 1e9 /. fi first.run_events);
    emit_shares (List.map (fun (_, l) -> l.profile) inst);
    emit Layer "network.msgs_per_op" "count" (fi first.run_sent /. ops);
    emit Layer "server.handles_per_op" "count" (lmed (fun (_, l) -> fi l.timer.handles /. ops));
    emit Layer "server.ns_per_handle" "ns"
      (lmed (fun (_, l) -> ratio (fi l.timer.handle_ns) (fi l.timer.handles)));
    emit Layer "client.aborts_per_get" "ratio" (ratio (fi o.aborted) (fi o.completed_gets));
    emit Layer "store.setup_ms_per_key" "ms" (med (fun r -> r.setup_s *. 1e3 /. fi w.keys));
    emit Layer "store.heap_kb_per_key" "KiB"
      (fi (heap_words * (Sys.word_size / 8)) /. 1024.0 /. fi w.keys);
    emit Layer "loadgen.queue_wait_p99_ticks" "ticks" first.qwait_p99;
    emit Layer "loadgen.peak_queue" "count" (fi o.peak_queue);
    emit Layer "loadgen.peak_inflight" "count" (fi o.peak_inflight);
    emit Layer "stabilization.ns_per_op" "ns" (lmed (fun (_, l) -> fi l.stab_ns /. ops));
    emit Layer "trace.sink_events_per_op" "count" (fi first.sink_events /. ops);
    emit Layer "checker.ns_per_read" "ns" (ratio (audit_s *. 1e9) (fi first.checked));
    emit Layer "gc.words_per_op" "words" (lmed (fun (_, l) -> l.words /. ops));
    emit Layer "gc.major_collections" "count" (lmed (fun (_, l) -> fi l.majors));
    emit_not_exercised
      [
        ("fuzz.events_per_sched", "count");
        ("fuzz.coverage_keys", "count");
        ("fuzz.scaling_2d", "ratio");
      ];
    emit Layer "bench.traced_overhead_pct" "%"
      (100.0
      *. ((segmented_time (List.map (fun (r, _) -> r.segments) inst) /. plain_run_s) -. 1.0));
    let attributed = lmed (fun (_, l) -> l.attributed) in
    emit Other "bench.attributed_share" "ratio" attributed;
    check (Float.abs (attributed -. 1.0) <= 0.02)
      "profile phases plus suite timers cover the round's wall time within 2%"
  end;
  (o.offered, failed)

(* -- fuzz workload ------------------------------------------------------- *)

(* A round is [campaigns] short campaigns with seeds derived from the
   run's seed.  Long campaigns drift towards whatever schedule sizes
   their corpus happens to retain, so one long campaign's cost per
   schedule depends on the seed far more than many short ones do. *)
let campaign_seed ~seed j = Int64.of_int ((seed * 1_000) + j)

type fuzz_round = {
  setups : float list;  (** one [~iterations:0] campaign per seed *)
  f_segments : float array;  (** wall time of each campaign *)
  domains : int;
  reports : Fuzz.parallel_report list;
}

let fuzz_round ~seed ~campaigns ~iterations ~domains =
  let runs =
    List.init campaigns (fun j ->
        let seed = campaign_seed ~seed j in
        let _, setup_s = timed (fun () -> Fuzz.run_parallel ~domains ~iterations:0 ~seed ()) in
        let r, run_s =
          timed (fun () ->
              Fuzz.run_parallel ~domains ~iterations ~max_events:fuzz_max_events ~seed ())
        in
        (setup_s, run_s, r))
  in
  {
    setups = List.map (fun (s, _, _) -> s) runs;
    f_segments = Array.of_list (List.map (fun (_, s, _) -> s) runs);
    domains;
    reports = List.map (fun (_, _, r) -> r) runs;
  }

let executed reports =
  List.fold_left (fun acc (r : Fuzz.parallel_report) -> acc + r.total_executed) 0 reports

(* What must repeat between two rounds of one seed. *)
let campaign (r : Fuzz.parallel_report) =
  ( r.total_executed,
    r.total_skipped,
    r.merged_coverage,
    List.length r.merged_corpus,
    List.length r.merged_findings )

let domain0 (r : Fuzz.parallel_report) =
  let d = (List.hd r.per_domain).report in
  (d.executed, d.coverage, List.length d.corpus, List.length d.findings)

type replay = {
  rd : digest;  (** events, sends, final clocks and coverage summed over the corpora *)
  scheds : int;  (** corpus schedules replayed *)
  histories : (int * Mw_ts.t History.t) list;  (** audit anchor and history *)
  profiles : Profile.report list;
  covered : float list;  (** per schedule: profiled share of [Scenario.execute]'s wall time *)
  rtimer : handle_timer;
  wrapped : int;  (** schedules whose servers were wrapped *)
  seen : int;  (** trace events the sink saw *)
  replay_s : float;
  rwords : float;
  rmajors : int;
}

(* Re-execute every corpus schedule as its campaign executed it.  The
   union of a corpus' coverage must be its campaign's merged coverage:
   every key was first reached by a schedule the corpus retained. *)
let replay ~instrument (campaigns : Fuzz.parallel_report list) =
  let scratch = sink_stats () in
  let timer = { handles = 0; handle_ns = 0 } in
  let events = ref 0 and sent = ref 0 and vtime = ref 0 and coverage = ref 0 in
  let scheds = ref 0 and wrapped = ref 0 in
  let histories = ref [] and profiles = ref [] and covered = ref [] in
  let gc0 = Gc.quick_stat () in
  let t0 = now_ns () in
  List.iter
    (fun (c : Fuzz.parallel_report) ->
      let union = Coverage.create () in
      List.iter
        (fun (s : Scenario.t) ->
          Coverage.reset scratch.cov;
          (* a pre-installed Byzantine handler must not be replaced *)
          let wrap = instrument && s.strategy = None && not (Fault_plan.has_byzantine s.plan) in
          if wrap then incr wrapped;
          incr scheds;
          match
            timed (fun () ->
                Scenario.execute ~sink:(sink scratch) ~collect_events:false ~profile:instrument
                  ?on_system:(if wrap then Some (wrap_servers timer) else None)
                  ~max_events:fuzz_max_events s)
          with
          | Error e, _ -> check false ("a corpus schedule executes: " ^ e)
          | Ok run, exec_s ->
              ignore (Coverage.absorb ~into:union scratch.cov : int);
              let e = System.engine run.sys in
              events := !events + Engine.events_fired e;
              sent := !sent + Metrics.get (Engine.metrics e) Names.net_sent;
              vtime := !vtime + Engine.now e;
              if instrument then begin
                let r = Profile.report (Engine.profile e) in
                profiles := r :: !profiles;
                covered := (r.wall_s /. exec_s) :: !covered
              end;
              histories := (run.after, System.history run.sys) :: !histories)
        c.merged_corpus;
      check
        (Coverage.cardinal union = c.merged_coverage)
        "replaying a corpus reaches its campaign's merged coverage";
      coverage := !coverage + Coverage.cardinal union)
    campaigns;
  let replay_s = seconds_since t0 in
  let gc1 = Gc.quick_stat () in
  {
    rd =
      {
        events = !events;
        sent = !sent;
        vtime = !vtime;
        completed = executed campaigns;
        coverage = !coverage;
      };
    scheds = !scheds;
    histories = List.rev !histories;
    profiles = List.rev !profiles;
    covered = !covered;
    rtimer = timer;
    wrapped = !wrapped;
    seen = scratch.seen;
    replay_s;
    rwords = allocated gc1 -. allocated gc0;
    rmajors = gc1.major_collections - gc0.major_collections;
  }

(* One audit pass over the replayed histories: reads checked,
   violations, and each history's audit time. *)
let audit_histories histories =
  let checked = ref 0 and violations = ref 0 in
  let times =
    Array.of_list
      (List.map
         (fun (after, h) ->
           let r, s = timed (fun () -> Regularity.check ~after ~ts_prec:Mw_ts.prec h) in
           checked := !checked + r.checked_reads;
           violations := !violations + List.length r.violations;
           s)
         histories)
  in
  (!checked, !violations, times)

let skipped reports =
  List.fold_left (fun acc (r : Fuzz.parallel_report) -> acc + r.total_skipped) 0 reports

(* Returns (attempted, failed) for one one-domain round, as [run_kv]
   does. *)
let run_fuzz ~campaigns ~iterations ~seed ~seconds ~traced =
  (* The first two-domain round's corpus is replayed once for its
     histories, then audited three times after every round, as a kv
     round audits its store: the passes sample the whole run, not one
     moment of it. *)
  let plain = ref None and audits = ref [] in
  let rounds =
    repeat ~seconds ~min_rounds:4 (fun i ->
        (* Throughput is timed on one-domain rounds: on a 2-vCPU host
           two domains run at the mercy of the host's scheduler, and
           their rounds ran at 233-379 schedules/s within one run
           against 231-253 for one domain.  Round 0 runs one domain,
           so its heap peak is deterministic; round 1 runs two, for the
           corpus and for the check that domain 0 runs the same
           campaign either way.  Traced runs alternate the two for the
           scaling figure. *)
        let domains = if i = 1 || (traced && i mod 2 = 1) then fuzz_domains else 1 in
        let x = fuzz_round ~seed ~campaigns ~iterations ~domains in
        let run_s = Array.fold_left ( +. ) 0.0 x.f_segments in
        Printf.printf "round domains=%d run_s=%.4f sched_per_s=%.1f\n%!" domains run_s
          (fi (executed x.reports) /. run_s);
        if i >= 1 then begin
          let p =
            match !plain with
            | Some p -> p
            | None ->
                let p = replay ~instrument:false x.reports in
                plain := Some p;
                p
          in
          for _ = 1 to 3 do
            audits := audit_histories p.histories :: !audits
          done
        end;
        x)
  in
  let plain = Option.get !plain in
  let two = List.filter (fun r -> r.domains = fuzz_domains) rounds in
  let one = List.filter (fun r -> r.domains = 1) rounds in
  let first = List.hd two and first_one = List.hd one in
  List.iter
    (fun x ->
      check
        (List.map campaign x.reports = List.map campaign first.reports)
        "every two-domain round repeats")
    two;
  List.iter
    (fun x ->
      check
        (List.map campaign x.reports = List.map campaign first_one.reports)
        "every one-domain round repeats";
      check
        (List.map domain0 x.reports = List.map domain0 first.reports)
        "domain 0 runs the same campaign at 1 and 2 domains")
    one;
  check (skipped first.reports = 0) "every fuzzed schedule executes";
  let findings =
    List.concat_map (fun (r : Fuzz.parallel_report) -> r.merged_findings) first.reports
  in
  List.iter
    (fun (d, (fd : Fuzz.finding)) ->
      match Scenario.execute ~collect_events:false ~max_events:fuzz_max_events fd.scenario with
      | Ok run ->
          check
            (Scenario.verdict_of_run run = fd.verdict)
            (Printf.sprintf "finding d%d step %d replays its verdict" d fd.step);
          Printf.printf "finding d%d step %d seed=%Ld: %s\n" d fd.step fd.scenario.seed
            (Scenario.verdict_to_string fd.verdict)
      | Error e -> check false ("a finding executes: " ^ e))
    findings;
  let checked, violations, _ = List.hd !audits in
  List.iter
    (fun (c, v, _) -> check ((c, v) = (checked, violations)) "every audit pass agrees")
    !audits;
  let audit_s = segmented_time (List.map (fun (_, _, times) -> times) !audits) in
  let rate xs =
    fi (executed (List.hd xs).reports) /. segmented_time (List.map (fun x -> x.f_segments) xs)
  in
  emit E2e "setup_s" "s" (median (List.concat_map (fun x -> x.setups) one));
  emit E2e "ops_per_s" "1/s" (rate one);
  emit E2e "audit_reads_per_s" "1/s" (fi checked /. audit_s);
  emit Other "audit_s" "s" audit_s;
  emit Other "failed_frac" "ratio"
    (ratio (fi (skipped first_one.reports)) (fi (executed first_one.reports)));
  emit Other "fuzz.findings" "count" (fi (List.length findings));
  emit Other "fuzz.corpus" "count" (fi plain.scheds);
  emit Other "audit_violations" "count" (fi violations);
  emit Other "audit_reads" "count" (fi checked);
  emit_digest plain.rd;
  if traced then begin
    let inst = replay ~instrument:true first.reports in
    check (inst.rd = plain.rd) "the instrumented replay repeats the plain replay's digest";
    let scheds = fi plain.scheds in
    emit Layer "engine.events_per_op" "count" (fi plain.rd.events /. scheds);
    emit Layer "engine.ns_per_event" "ns" (plain.replay_s *. 1e9 /. fi plain.rd.events);
    emit_shares inst.profiles;
    emit Layer "network.msgs_per_op" "count" (fi plain.rd.sent /. scheds);
    emit Layer "server.handles_per_op" "count" (ratio (fi inst.rtimer.handles) (fi inst.wrapped));
    emit Layer "server.ns_per_handle" "ns"
      (ratio (fi inst.rtimer.handle_ns) (fi inst.rtimer.handles));
    let gets, aborts =
      List.fold_left
        (fun acc (_, h) ->
          List.fold_left
            (fun (g, a) -> function
              | History.Read { outcome = History.Value _; _ } -> (g + 1, a)
              | History.Read { outcome = History.Abort; _ } -> (g + 1, a + 1)
              | _ -> (g, a))
            acc (History.ops h))
        (0, 0) plain.histories
    in
    emit Layer "client.aborts_per_get" "ratio" (ratio (fi aborts) (fi gets));
    emit_not_exercised
      [
        ("store.setup_ms_per_key", "ms");
        ("store.heap_kb_per_key", "KiB");
        ("loadgen.queue_wait_p99_ticks", "ticks");
        ("loadgen.peak_queue", "count");
        ("loadgen.peak_inflight", "count");
        ("stabilization.ns_per_op", "ns");
      ];
    emit Layer "trace.sink_events_per_op" "count" (fi plain.seen /. scheds);
    emit Layer "checker.ns_per_read" "ns" (ratio (audit_s *. 1e9) (fi checked));
    emit Layer "gc.words_per_op" "words" (plain.rwords /. scheds);
    emit Layer "gc.major_collections" "count" (fi plain.rmajors);
    emit Layer "fuzz.events_per_sched" "count" (fi plain.rd.events /. scheds);
    emit Layer "fuzz.coverage_keys" "count" (fi plain.rd.coverage);
    emit Layer "fuzz.scaling_2d" "ratio" (rate two /. rate one);
    emit Layer "bench.traced_overhead_pct" "%"
      (100.0 *. ((inst.replay_s /. plain.replay_s) -. 1.0));
    (* Phases sum to the profiler's wall time by construction; what is
       checked is that the profiler spans nearly all of a schedule. *)
    let attributed = median inst.covered in
    emit Other "bench.attributed_share" "ratio" attributed;
    check (Float.abs (attributed -. 1.0) <= 0.02)
      "profile phases cover a schedule's wall time within 2%"
  end;
  (executed first_one.reports, skipped first_one.reports)

(* -- entry point ---------------------------------------------------------- *)

let usage_error msg =
  prerr_endline ("suite: " ^ msg);
  exit 2

let () =
  let workload = ref "" and seed = ref 24 and seconds = ref 10.0 and trace = ref 0 in
  let scale = ref 1.0 and json = ref None in
  let specs =
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME  one of " ^ String.concat ", " (List.map fst workloads) );
      ("--seed", Arg.Set_int seed, "S  input seed (default 24; 25 is the held-out seed)");
      ("--seconds", Arg.Set_float seconds, "T  measure for T seconds (default 10)");
      ("--trace", Arg.Set_int trace, "0|1  1 adds instrumented rounds and per-layer metrics");
      ("--scale", Arg.Set_float scale, "X  multiply round sizes by X (default 1)");
      ("--json", Arg.String (fun p -> json := Some p), "OUT  also write every metric to OUT");
    ]
  in
  Arg.parse specs
    (fun a -> usage_error ("unexpected argument " ^ a))
    "suite.exe --workload NAME [options]";
  if !trace <> 0 && !trace <> 1 then usage_error "--trace takes 0 or 1";
  if not (!seconds >= 0.0) then usage_error "--seconds must be a non-negative number";
  if not (!scale > 0.0) then usage_error "--scale must be positive";
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> scale_workload !scale w
    | None -> usage_error (Printf.sprintf "unknown workload %S" !workload)
  in
  let traced = !trace = 1 in
  let attempted, failed =
    match w with
    | Kv k -> run_kv k ~seed:!seed ~seconds:!seconds ~traced
    | Fuzz_campaigns { campaigns; iterations } ->
        run_fuzz ~campaigns ~iterations ~seed:!seed ~seconds:!seconds ~traced
  in
  if traced then labels_layer ~seed:!seed;
  emit E2e "peak_heap_mb" "MB" (fi (!first_round_top_heap * (Sys.word_size / 8)) /. 1e6);
  let all = List.rev !metrics in
  List.iter (fun (_, name, v, u) -> Printf.printf "%s %.17g %s\n" name v u) all;
  List.iter (fun f -> Printf.eprintf "suite: check failed: %s\n" f) (List.rev !failures);
  let result selected =
    Json.Obj
      [
        ("correct", Json.Bool (!failures = []));
        ("attempted", Json.Int attempted);
        ("failed", Json.Int failed);
        ( "metrics",
          Json.Obj
            (List.filter_map
               (fun (kind, name, v, u) ->
                 if selected kind then
                   Some (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ])
                 else None)
               all) );
      ]
  in
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc (Json.to_string (result (fun _ -> true)));
      output_char oc '\n';
      close_out oc)
    !json;
  print_endline (Json.to_string (result (fun k -> k = if traced then Layer else E2e)));
  exit (if !failures = [] then 0 else 1)
