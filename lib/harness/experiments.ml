module Engine = Sbft_sim.Engine
module Rng = Sbft_sim.Rng
module Config = Sbft_core.Config
module System = Sbft_core.System
module Strategy = Sbft_byz.Strategy
module Strategies = Sbft_byz.Strategies
module Theorem1 = Sbft_byz.Theorem1
module History = Sbft_spec.History
module Sbls = Sbft_labels.Sbls
module Mw_ts = Sbft_labels.Mw_ts
module Baseline = Sbft_baselines.Baseline
module Fault_plan = Sbft_byz.Fault_plan

let seeds = [ 11L; 23L; 37L ]

let fmt = Printf.sprintf

let f1 v = fmt "%.1f" v

let f2 v = fmt "%.2f" v

(* A register run through the one run path behind [sbftreg run]:
   build, strategy, corruption, fault plan, workload, audit. *)
let execute s =
  match Scenario.execute ~level:Sbft_sim.Trace.Off ~collect_events:false s with
  | Ok r -> r
  | Error e -> invalid_arg ("Experiments: " ^ e)

(* Every table cell is a scenario, run once per seed; [base] is
   [sbftreg run]'s defaults (n=6, f=1, 4 clients, 25 ops per client,
   write ratio 0.3, uniform 1..10 delays) without telemetry snapshots. *)
let base = { Scenario.default with snapshot_every = 0 }

let cell s = List.map (fun seed -> execute { s with Scenario.seed }) seeds

let sum f runs = List.fold_left (fun acc r -> acc + f r) 0 runs

let total f runs = fmt "%d" (sum f runs)

let violations (r : Scenario.run) = List.length r.report.violations

let aborts (r : Scenario.run) = r.reg.aborted_reads ()

let regs runs = List.map (fun (r : Scenario.run) -> r.reg) runs

let msgs_per_op (reg : Register.t) =
  let ops = reg.completed_writes () + reg.completed_reads () + reg.aborted_reads () in
  float_of_int (reg.messages_sent ()) /. float_of_int (max 1 ops)

(* Regularity violations from the first completed write on. *)
let violations_from_first_write (reg : Register.t) =
  let after = Option.value ~default:max_int (reg.first_write_completion ()) in
  (reg.check_regular ~after ()).violations

(* Write and read latency summaries over several runs. *)
let latencies regs =
  let w, r = List.split (List.map (fun (reg : Register.t) -> reg.op_latencies ()) regs) in
  (Stats.summarize (Array.concat w), Stats.summarize (Array.concat r))

(* The tables that drive a system by hand share one shape: n=6, f=1,
   uniform 1..10 delays. *)
let make_core ~seed ~clients ?strategy () =
  let sys = System.create ~seed (Config.make ~n:6 ~f:1 ~clients ()) in
  Option.iter (fun s -> ignore (Strategy.install_all sys s)) strategy;
  sys

(* ------------------------------------------------------------------ *)

let e1_lower_bound () =
  let rows_rules =
    List.map
      (fun d ->
        let o = Theorem1.run_decision d in
        [
          "TM_1R rule: " ^ o.rule;
          fmt "r1->%d %s" o.r1_returns (if o.r1_ok then "ok" else "WRONG");
          fmt "r2->%d %s" o.r2_returns (if o.r2_ok then "ok" else "WRONG");
          (if o.r1_ok && o.r2_ok then "consistent" else "violates regularity");
        ])
      Theorem1.decisions
  in
  let rows_protocol =
    List.concat_map
      (fun seed ->
        List.map
          (fun n ->
            let o = Theorem1.run_protocol ~n ~f:1 ~seed in
            [
              fmt "protocol n=%d f=1 seed=%Ld" n seed;
              fmt "wrote %d" o.written;
              "read " ^ o.read_result;
              (if o.violation then "violates regularity"
               else if o.aborted then "aborted"
               else "consistent");
            ])
          [ 5; 6 ])
      seeds
  in
  Table.make ~id:"E1" ~title:"Theorem 1: no regular register in TM_1R with n <= 5f"
    ~header:[ "execution"; "after w(111) / r1"; "r2 / scheduled read"; "verdict" ]
    ~notes:
      [
        "every deterministic one-phase decision rule fails one of the two reads (identical multisets)";
        "the concrete schedule breaks our protocol at n = 5f and is harmless at n = 5f + 1";
      ]
    (rows_rules @ rows_protocol)

(* ------------------------------------------------------------------ *)

let e2_termination () =
  let row n =
    let f = (n - 1) / 5 in
    let regs = regs (cell { base with n; f; strategy = Some "silent" }) in
    let sw, sr = latencies regs in
    let mpo = Stats.mean (Array.of_list (List.map msgs_per_op regs)) in
    [
      fmt "n=%d f=%d" n f;
      fmt "%d" sw.count;
      f1 sw.mean;
      f1 sw.p95;
      fmt "%d" sr.count;
      f1 sr.mean;
      f1 sr.p95;
      f1 mpo;
    ]
  in
  Table.make ~id:"E2" ~title:"Lemmas 1 & 6: every operation terminates (f Byzantine-mute servers)"
    ~header:[ "system"; "writes"; "w mean"; "w p95"; "reads"; "r mean"; "r p95"; "msgs/op" ]
    ~notes:
      [
        "latencies in virtual ticks (channel delay uniform 1..10)";
        "f servers run the 'silent' strategy: termination must not depend on them";
      ]
    (List.map row [ 6; 11; 16; 21 ])

(* ------------------------------------------------------------------ *)

let e3_write_coverage () =
  let scenario name strategy =
    let coverages = ref [] in
    List.iter
      (fun seed ->
        let sys = make_core ~seed ~clients:2 ?strategy () in
        let writer = 6 in
        let rec chain i =
          if i < 25 then
            System.write sys ~client:writer ~value:(100 + i)
              ~k:(fun () ->
                (match Sbft_core.Client.last_write_ts (System.client sys writer) with
                | Some ts ->
                    coverages := System.count_holding sys ~value:(100 + i) ~ts :: !coverages
                | None -> ());
                chain (i + 1))
              ()
        in
        chain 0;
        System.quiesce sys)
      seeds;
    let s = Stats.summarize (Stats.of_ints !coverages) in
    [ name; fmt "%d" s.count; fmt "%.0f" s.min; f1 s.mean; fmt "%.0f" s.max; "4" ]
  in
  Table.make ~id:"E3" ~title:"Lemma 2: every completed write is held by >= 3f+1 servers (n=6, f=1)"
    ~header:[ "byzantine strategy"; "writes"; "min"; "mean"; "max"; "bound 3f+1" ]
    ~notes:[ "coverage counted at the write's completion instant, including history windows" ]
    [
      scenario "none" None;
      scenario "silent" (Some Strategies.silent);
      scenario "nack-all" (Some Strategies.nack_all);
      scenario "stale-replay" (Some Strategies.stale_replay);
      scenario "mute-phase1" (Some Strategies.mute_phase1);
      scenario "mute-phase2" (Some Strategies.mute_phase2);
    ]

(* ------------------------------------------------------------------ *)

let e4_regularity () =
  let row (name, _) =
    let runs =
      cell
        { base with strategy = Some name; clients = 5; ops_per_client = 20; write_ratio = 0.4 }
    in
    [
      name;
      total (fun (r : Scenario.run) -> r.report.checked_reads) runs;
      total (fun (r : Scenario.run) -> r.report.skipped_reads) runs;
      total aborts runs;
      total violations runs;
    ]
  in
  Table.make ~id:"E4"
    ~title:"Lemma 7 / Theorems 2-3: regularity under every Byzantine strategy (n=6, f=1)"
    ~header:[ "strategy"; "reads checked"; "skipped"; "aborts"; "violations" ]
    ~notes:
      [
        "checked after the first completed write (pseudo-stabilization's suffix)";
        "expected: 0 violations in every row";
      ]
    (List.map row Strategies.all)

(* ------------------------------------------------------------------ *)

(* E5's runs: f servers replay stale state on top of the initial
   corruption, which [corrupt] or t = 0 plan events apply before any
   operation. *)
let e5_base = { base with strategy = Some "stale-replay"; clients = 5; ops_per_client = 20 }

let e5_everything = { e5_base with corrupt = true }

let e5_stabilization () =
  let scenario name s =
    let aborts_pre = ref 0 and aborts_post = ref 0 in
    let ticks_to_valid = ref [] in
    let runs = cell s in
    List.iter
      (fun (r : Scenario.run) ->
        let h = System.history r.sys in
        let after = r.after in
        List.iter
          (fun op ->
            match op with
            | History.Read { inv; outcome = History.Abort; _ } ->
                if inv < after then incr aborts_pre else incr aborts_post
            | _ -> ())
          (History.ops h);
        (* First read that returned a value, invoked after the first
           completed write. *)
        (match
           List.find_opt
             (fun op ->
               match op with
               | History.Read { inv; outcome = History.Value _; _ } -> inv >= after
               | _ -> false)
             (History.ops h)
         with
        | Some (History.Read { resp = Some resp; _ }) when after <> max_int ->
            ticks_to_valid := float_of_int (resp - after) :: !ticks_to_valid
        | _ -> ()))
      runs;
    let ttv = Stats.summarize (Array.of_list !ticks_to_valid) in
    [
      name;
      fmt "%d" !aborts_pre;
      fmt "%d" !aborts_post;
      f1 ttv.mean;
      fmt "%.0f" ttv.max;
      total violations runs;
    ]
  in
  let servers severity =
    List.map (fun id -> (0, Fault_plan.Corrupt_server (id, severity))) [ 0; 1; 2; 3; 4 ]
  in
  Table.make ~id:"E5" ~title:"Pseudo-stabilization: recovery after transient corruption (n=6, f=1)"
    ~header:
      [ "initial corruption"; "aborts pre-stab"; "aborts post"; "ticks to valid read"; "worst"; "violations" ]
    ~notes:
      [
        "corruption applied at t=0 before any operation; f additional servers are Byzantine (stale-replay)";
        "'post' = after the first completed write; expected: violations 0, post-aborts ~0";
      ]
    [
      scenario "none" e5_base;
      scenario "servers light" { e5_base with plan = servers `Light };
      scenario "servers heavy" { e5_base with plan = servers `Heavy };
      scenario "channels 30%" { e5_base with plan = [ (0, Fault_plan.Corrupt_channels 0.3) ] };
      scenario "everything" e5_everything;
    ]

(* E5's worst row ("everything") at seed 11 with the convergence probe
   on: the full abort-rate / label-occupancy curves behind the table's
   scalar summary.  Exported through [sbftreg experiment e5
   --metrics-out] and plotted in EXPERIMENTS.md. *)
let stabilization_telemetry () =
  let r = execute { e5_everything with seed = 11L; snapshot_every = 25 } in
  let stale_reads = List.map (fun (v : Sbft_spec.Regularity.violation) -> v.read_id) r.report.violations in
  Telemetry.to_json r.telemetry ~history:(System.history r.sys) ~stale_reads ()

(* ------------------------------------------------------------------ *)

let domination_failures ~k ~seed ~trials =
  let sys = Sbls.system ~k in
  let rng = Rng.create seed in
  let failures = ref 0 in
  for _ = 1 to trials do
    let inputs = List.init (Rng.int_in rng 1 k) (fun _ -> Sbls.random sys rng) in
    let nxt = Sbls.next sys inputs in
    if not (List.for_all (fun l -> Sbls.prec l nxt) inputs) then incr failures
  done;
  !failures

let e6_bounded_labels () =
  (* Domination property of next() from arbitrary (corrupted) inputs. *)
  let domination k trials =
    float_of_int (trials - domination_failures ~k ~seed:7L ~trials) /. float_of_int trials
  in
  let growth_row name regs =
    let bits = List.map (fun (reg : Register.t) -> float_of_int (reg.max_ts_bits ())) regs in
    [ name; f1 (Stats.mean (Array.of_list bits)) ]
  in
  let ops_per_client = 60 and write_ratio = 1.0 in
  let ours = regs (cell { base with clients = 3; ops_per_client; write_ratio }) in
  let kanjani ~poisoned =
    List.map
      (fun seed ->
        let k = Baseline.create ~seed Baseline.Kanjani ~n:4 ~f:1 ~clients:3 () in
        (* One transient fault plants a huge timestamp on one server. *)
        if poisoned then Baseline.corrupt_server k 0;
        let reg = Register.baseline k in
        ignore (Workload.run ~spec:{ Workload.default with ops_per_client; write_ratio } reg);
        reg)
      seeds
  in
  let label_rows =
    List.map
      (fun n ->
        let sys = Sbls.system ~k:n in
        [ fmt "k-SBLS label, k=n=%d" n; fmt "%d" (Sbls.size_bits sys) ])
      [ 6; 11; 16; 21 ]
  in
  (* Non-stabilizing bounded straw man (SIV-A): fraction of corrupted
     5-label configurations from which NO new label dominates. *)
  let cyclic_stuck m =
    let sys = Sbft_labels.Cyclic.system ~m in
    let rng = Rng.create 2L in
    let stuck = ref 0 in
    let trials = 2000 in
    for _ = 1 to trials do
      let inputs = List.init 5 (fun _ -> Sbft_labels.Cyclic.random sys rng) in
      if Sbft_labels.Cyclic.stuck sys inputs then incr stuck
    done;
    float_of_int !stuck /. float_of_int trials
  in
  Table.make ~id:"E6" ~title:"Bounded labels: storage stays fixed; next() always dominates"
    ~header:[ "timestamp scheme / measure"; "bits (or rate)" ]
    ~notes:
      [
        "bounded labels cost O(k log k) bits forever; unbounded integers grow and can be poisoned";
        fmt "next() domination over %d corrupted-state trials (k=6 and k=16): %s / %s" 10_000
          (f2 (domination 6 10_000))
          (f2 (domination 16 10_000));
        fmt
          "non-stabilizing cyclic scheme (classic straw man): %.0f%% of corrupted configurations \
           are permanently stuck (m=16); %.0f%% even at m=64"
          (100.0 *. cyclic_stuck 16) (100.0 *. cyclic_stuck 64);
      ]
    (label_rows
    @ [
        growth_row "ours after 180 writes (label bits)" ours;
        growth_row "kanjani after 180 writes (int bits)" (kanjani ~poisoned:false);
        growth_row "kanjani after 180 writes, poisoned ts (int bits)" (kanjani ~poisoned:true);
      ])

(* ------------------------------------------------------------------ *)

let e7_mwmr_order () =
  let row clients_writing =
    let order_viol = ref 0 and reg_viol = ref 0 and comparable = ref 0 and pairs = ref 0 in
    List.iter
      (fun seed ->
        let sys = make_core ~seed ~clients:6 ~strategy:Strategies.stale_replay () in
        let reg = Register.core sys in
        let writers = List.filteri (fun i _ -> i < clients_writing) reg.writer_clients in
        let _ =
          Workload.run_mixed
            ~spec:{ Workload.default with ops_per_client = 15; write_ratio = 0.6; think_max = 5 }
            ~writers ~readers:reg.reader_clients reg
        in
        let h = System.history sys in
        let after = Option.value ~default:max_int (History.first_write_completion h) in
        let c = reg.check_regular ~after () in
        reg_viol := !reg_viol + c.violations;
        order_viol :=
          !order_viol
          + List.length (List.filter (fun d -> String.length d > 5 && String.sub d 0 5 = "write") c.detail);
        (* Comparability of completed-write timestamps. *)
        let tss =
          List.filter_map
            (function History.Write { ts = Some ts; _ } -> Some ts | _ -> None)
            (History.ops h)
        in
        List.iteri
          (fun i a ->
            List.iteri
              (fun j b ->
                if j > i then begin
                  incr pairs;
                  if Mw_ts.prec a b || Mw_ts.prec b a then incr comparable
                end)
              tss)
          tss)
      seeds;
    [
      fmt "%d concurrent writers" clients_writing;
      fmt "%d" !pairs;
      fmt "%.1f%%" (100.0 *. float_of_int !comparable /. float_of_int (max 1 !pairs));
      fmt "%d" !order_viol;
      fmt "%d" !reg_viol;
    ]
  in
  Table.make ~id:"E7" ~title:"Lemma 8 / Theorem 3: MWMR writes are totally ordered (n=6, f=1)"
    ~header:[ "workload"; "write pairs"; "ts-comparable"; "order violations"; "regularity violations" ]
    ~notes:
      [
        "order violation = the protocol's (id,label) order contradicts real-time precedence";
        "ts-comparable should be 100% for non-concurrent pairs; concurrent pairs are ordered by writer id";
      ]
    (List.map row [ 1; 2; 4; 6 ])

(* ------------------------------------------------------------------ *)

let e8_baselines () =
  (* Four fault scenarios x four registers; regularity violations
     counted after the first completed write. *)
  let scenarios = [ "clean"; "f byzantine"; "transient"; "byz+transient" ] in
  let build_core scen seed =
    let sys =
      make_core ~seed ~clients:4
        ?strategy:(if scen = "f byzantine" || scen = "byz+transient" then Some Strategies.stale_replay else None)
        ()
    in
    if scen = "transient" || scen = "byz+transient" then System.corrupt_everything sys ~severity:`Heavy;
    Register.core sys
  in
  (* E8's deployments: server n-1 turns Byzantine; the transient
     fault poisons f+1 servers (one for ABD) and corrupts channels. *)
  let build_baseline protocol ~n ~poisoned scen seed =
    let sys = Baseline.create ~seed protocol ~n ~f:1 ~clients:4 () in
    if scen = "f byzantine" || scen = "byz+transient" then Baseline.make_byzantine sys (n - 1);
    if scen = "transient" || scen = "byz+transient" then begin
      Baseline.poison sys ~ids:poisoned;
      Baseline.corrupt_channels sys ~density:0.2
    end;
    Register.baseline sys
  in
  let describe name build =
    List.map
      (fun scen ->
        let runs =
          List.map
            (fun seed ->
              let reg = build scen seed in
              (reg, Workload.run ~spec:{ Workload.default with ops_per_client = 15 } reg))
            seeds
        in
        let msgs ((reg : Register.t), _) =
          let ops = reg.completed_writes () + reg.completed_reads () in
          float_of_int (reg.messages_sent ()) /. float_of_int (max 1 ops)
        in
        let stuck = sum (fun (_, (o : Workload.outcome)) -> Bool.to_int o.livelocked) runs in
        [
          name;
          scen;
          total (fun (reg, _) -> violations_from_first_write reg) runs;
          total (fun ((reg : Register.t), _) -> reg.aborted_reads ()) runs;
          f1 (Stats.mean (Array.of_list (List.map msgs runs)));
          (if stuck > 0 then fmt "%d livelocked" stuck else "-");
        ])
      scenarios
  in
  Table.make ~id:"E8" ~title:"Related-work comparison: who survives which fault class"
    ~header:[ "register"; "scenario"; "regularity violations"; "aborts"; "msgs/op"; "liveness" ]
    ~notes:
      [
        "ours n=6; kanjani n=4 (3f+1); mr-safe n=6; abd n=3 (2f+1, crash-only)";
        "transient = correlated poison pair on f+1 servers (1 for abd) + 20% channel garbage; ours gets full corrupt_everything";
        "expected shape: baselines violate under transient (and abd under byzantine); ours never";
      ]
    (describe "sbft-core (ours)" build_core
    @ describe "kanjani 3f+1" (build_baseline Baseline.Kanjani ~n:4 ~poisoned:[ 0; 1 ])
    @ describe "mr-safe" (build_baseline Baseline.Mr_safe ~n:6 ~poisoned:[ 0; 1 ])
    @ describe "abd" (build_baseline Baseline.Abd ~n:3 ~poisoned:[ 0 ]))

(* ------------------------------------------------------------------ *)

let e9_tightness () =
  let row n =
    let attack = Theorem1.run_protocol ~n ~f:1 ~seed:5L in
    let runs = cell { base with n; strategy = Some "stale-replay"; ops_per_client = 15 } in
    [
      fmt "n=%d (5f%+d)" n (n - 5);
      (if attack.violation then "VIOLATION" else if attack.aborted then "abort" else "ok");
      total violations runs;
      total aborts runs;
      total (fun (r : Scenario.run) -> Bool.to_int r.outcome.livelocked) runs;
    ]
  in
  Table.make ~id:"E9" ~title:"Tightness of n > 5f (f=1): what breaks below the bound"
    ~header:[ "servers"; "scheduled attack"; "random violations"; "aborts"; "livelocks" ]
    ~notes:
      [
        "n=4,5 are below the bound (allow_unsafe); n=6 is the paper's minimum; n=7,8 have slack";
      ]
    (List.map row [ 4; 5; 6; 7; 8 ])

(* ------------------------------------------------------------------ *)

(* Assumption 2's stress, shared by E10 and E14: a writer issues 200
   writes back to back while one reader reads 6 times.  Four correct
   servers answer the reader only after a long transit ([skew] to
   4 x [skew] channel delays), so their contributions are snapshots
   from that long ago.  Once the writer advances further than the
   history window within that horizon, no pair is common to n - f
   reports and the read must abort rather than guess.  Returns (reads,
   aborts, violations) summed over the seeds. *)
let write_burst ~skew cfg =
  let aborts = ref 0 and reads = ref 0 and viol = ref 0 in
  List.iter
    (fun seed ->
      let sys = System.create ~seed cfg in
      let reg = Register.core sys in
      let writer = 6 and reader = 7 in
      let net = System.network sys in
      List.iter
        (fun src -> Sbft_channel.Network.set_slow net ~src ~dst:reader ~factor:(src * skew))
        [ 1; 2; 3; 4 ];
      let rec wchain i =
        if i < 200 then
          System.write sys ~client:writer ~value:(1000 + i) ~k:(fun () -> wchain (i + 1)) ()
      in
      let rec rchain i =
        if i < 6 then
          System.read sys ~client:reader
            ~k:(fun o ->
              incr reads;
              (match o with History.Abort -> incr aborts | _ -> ());
              rchain (i + 1))
            ()
      in
      System.write sys ~client:writer ~value:999
        ~k:(fun () ->
          wchain 0;
          rchain 0)
        ();
      System.quiesce sys;
      viol := !viol + (reg.check_regular ~after:0 ()).violations)
    seeds;
  (!reads, !aborts, !viol)

let abort_rate ~reads ~aborts = fmt "%.1f%%" (100.0 *. float_of_int aborts /. float_of_int (max 1 reads))

let e10_quiescence () =
  let row ~skew ~depth =
    let reads, aborts, viol =
      write_burst ~skew (Config.make ~history_depth:depth ~n:6 ~f:1 ~clients:3 ())
    in
    [
      fmt "skew=%dx depth=%d" skew depth;
      fmt "%d" reads;
      fmt "%d" aborts;
      abort_rate ~reads ~aborts;
      fmt "%d" viol;
    ]
  in
  Table.make ~id:"E10"
    ~title:"Assumption 2: continuous writes vs the bounded history window (n=6, f=1)"
    ~header:[ "reader skew / window"; "reads"; "aborts"; "abort rate"; "violations" ]
    ~notes:
      [
        "a 200-write burst runs while four of six servers answer the reader with differently stale snapshots";
        "once the writer outruns the old_vals window, reads abort (never lie); a deeper window or \
         write quiescence restores them — the paper's Assumption 2";
      ]
    [
      row ~skew:1 ~depth:6;
      row ~skew:20 ~depth:6;
      row ~skew:60 ~depth:6;
      row ~skew:120 ~depth:6;
      row ~skew:120 ~depth:40;
    ]

(* ------------------------------------------------------------------ *)

let e11_datalink () =
  let module Datalink = Sbft_channel.Datalink in
  let row ~loss ~preload =
    let delivered_ok = ref 0 and runs = ref 0 and xmit = ref 0.0 and ticks = ref 0.0 in
    List.iter
      (fun seed ->
        incr runs;
        let engine = Engine.create ~seed () in
        let received = ref [] in
        let dl =
          Datalink.create engine ~capacity:4 ~loss ~max_delay:5
            ~deliver:(fun v -> received := v :: !received)
            ()
        in
        if preload then Datalink.corrupt dl ~garbage:(fun rng -> 9000 + Rng.int rng 100);
        let total = 40 in
        for i = 1 to total do
          Datalink.send dl i
        done;
        (try Engine.run ~max_events:2_000_000 engine with Engine.Budget_exhausted -> ());
        let got = List.rev !received in
        (* Pseudo-stabilization: some finite prefix may be garbage or
           lost; the suffix must be exactly the tail of 1..total. *)
        let rec is_suffix_of_sent = function
          | [] -> true
          | [ x ] -> x = total
          | x :: (y :: _ as rest) -> (x >= 1 && x <= total && y = x + 1) && is_suffix_of_sent rest
        in
        let rec longest_ok l =
          if is_suffix_of_sent l then List.length l
          else match l with [] -> 0 | _ :: tl -> longest_ok tl
        in
        let ok_suffix = longest_ok got in
        if ok_suffix >= total / 2 then incr delivered_ok;
        let s = Datalink.stats dl in
        xmit := !xmit +. (float_of_int s.transmissions /. float_of_int total);
        ticks := !ticks +. float_of_int (Engine.now engine))
      seeds;
    [
      fmt "loss=%.1f%s" loss (if preload then " + garbage preload" else "");
      fmt "%d/%d" !delivered_ok !runs;
      f1 (!xmit /. float_of_int !runs);
      fmt "%.0f" (!ticks /. float_of_int !runs);
    ]
  in
  Table.make ~id:"E11" ~title:"Stabilizing data-link over lossy non-FIFO channels (the FIFO substrate)"
    ~header:[ "channel"; "runs with correct FIFO suffix"; "transmissions/msg"; "ticks" ]
    ~notes:
      [
        "capacity-4 channel, labels cycle over 2c+1 = 9; sender needs c+1 = 5 matching acks";
        "suffix-FIFO is the pseudo-stabilization contract: a finite prefix may be lost/garbled";
      ]
    [
      row ~loss:0.0 ~preload:false;
      row ~loss:0.1 ~preload:false;
      row ~loss:0.3 ~preload:false;
      row ~loss:0.5 ~preload:false;
      row ~loss:0.1 ~preload:true;
      row ~loss:0.3 ~preload:true;
    ]

(* ------------------------------------------------------------------ *)

let e13_byzantine_clients () =
  let scenario name attack =
    let viol = ref 0 and reads = ref 0 and aborts = ref 0 and ghost_readers = ref 0 in
    List.iter
      (fun seed ->
        let sys = make_core ~seed ~clients:6 () in
        (* Two compromised client endpoints attack; the rest work. *)
        attack sys;
        let reg = Register.core sys in
        let honest = List.filter (fun c -> c >= 8) reg.writer_clients in
        let _ =
          Workload.run_mixed
            ~spec:{ Workload.default with ops_per_client = 15 }
            ~writers:honest ~readers:honest reg
        in
        let after = Option.value ~default:max_int (reg.first_write_completion ()) in
        let c = reg.check_regular ~after () in
        viol := !viol + c.violations;
        reads := !reads + c.checked;
        aborts := !aborts + reg.aborted_reads ();
        (* Residual running_read entries for the compromised endpoints. *)
        List.iter
          (fun sid ->
            let srv = System.server sys sid in
            ghost_readers :=
              !ghost_readers
              + List.length
                  (List.filter (fun (c, _) -> c = 6 || c = 7) (Sbft_core.Server.running_readers srv)))
          [ 0; 1; 2; 3; 4 ])
      seeds;
    [ name; fmt "%d" !reads; fmt "%d" !aborts; fmt "%d" !viol; fmt "%d" !ghost_readers ]
  in
  Table.make ~id:"E13"
    ~title:"Section VI remark: Byzantine readers cannot hurt correct clients (n=6, f=1)"
    ~header:[ "client attack"; "honest reads"; "aborts"; "violations"; "ghost registrations" ]
    ~notes:
      [
        "clients 6 and 7 are compromised; clients 8..11 run the audited workload";
        "ghost registrations = leftover running_read entries for the attackers (bounded, never growing)";
      ]
    [
      scenario "none" (fun _ -> ());
      scenario "flood (every 5 ticks)" (fun sys ->
          Sbft_byz.Byz_client.flood sys ~client:6 ~period:5 ~until:2000;
          Sbft_byz.Byz_client.flood sys ~client:7 ~period:5 ~until:2000);
      scenario "ghost readers" (fun sys ->
          Sbft_byz.Byz_client.ghost_reader sys ~client:6;
          Sbft_byz.Byz_client.ghost_reader sys ~client:7);
    ]

(* ------------------------------------------------------------------ *)

let e14_ablations () =
  (* The E10 stress (continuous writer, staggered-stale reader quorums)
     is where the forwarding rule and the history window earn their
     keep; measure each variant's abort rate there, plus the steady
     message cost on a calm mixed workload. *)
  let calm_msgs ~forward ~pool =
    let cfg = Config.make ~forward_to_readers:forward ~read_label_pool:pool ~n:6 ~f:1 ~clients:4 () in
    let run seed =
      let reg = Register.core (System.create ~seed cfg) in
      ignore (Workload.run ~spec:{ Workload.default with ops_per_client = 15 } reg);
      msgs_per_op reg
    in
    Stats.mean (Array.of_list (List.map run seeds))
  in
  let row name ~forward ~pool =
    let reads, aborts, viol =
      write_burst ~skew:60
        (Config.make ~forward_to_readers:forward ~read_label_pool:pool ~n:6 ~f:1 ~clients:3 ())
    in
    [
      name;
      fmt "%d" reads;
      fmt "%d" aborts;
      abort_rate ~reads ~aborts;
      f1 (calm_msgs ~forward ~pool);
      fmt "%d" viol;
    ]
  in
  Table.make ~id:"E14" ~title:"Ablations under write-burst stress: forwarding rule, read-label pool"
    ~header:[ "variant"; "stressed reads"; "aborts"; "abort rate"; "calm msgs/op"; "violations" ]
    ~notes:
      [
        "stress = 200-write burst with four staleness-skewed reader channels (the E10 scenario)";
        "forwarding refreshes a running reader's snapshots; without it stale quorums starve more reads";
      ]
    [
      row "forwarding=on  pool=3" ~forward:true ~pool:3;
      row "forwarding=off pool=3" ~forward:false ~pool:3;
      row "forwarding=on  pool=2" ~forward:true ~pool:2;
      row "forwarding=on  pool=8" ~forward:true ~pool:8;
    ]

(* ------------------------------------------------------------------ *)

let e15_asynchrony () =
  let row (name, delay) =
    let runs = cell { base with delay; strategy = Some "silent"; ops_per_client = 20 } in
    let w, r = latencies (regs runs) in
    [ name; f1 w.mean; f1 w.p95; f1 r.mean; f1 r.p95; total aborts runs; total violations runs ]
  in
  Table.make ~id:"E15" ~title:"Asynchrony sensitivity: correctness is delay-independent (n=6, f=1)"
    ~header:[ "delay model"; "w mean"; "w p95"; "r mean"; "r p95"; "aborts"; "violations" ]
    ~notes:[ "latency tracks the delay distribution; violations stay 0 under every model" ]
    (List.map row
       [
         ("uniform 1..2", "uniform-2");
         ("uniform 1..10", "uniform-10");
         ("uniform 1..50", "uniform-50");
         ("bimodal 3/60 @10%", "bimodal");
         ("two servers 16x slow", "skew-2-slow");
       ])

(* ------------------------------------------------------------------ *)

let e16_exploration () =
  let s = Explorer.explore ~seeds:3 () in
  let by_kind which =
    List.length
      (List.filter
         (fun (f : Explorer.failure) ->
           match f.kind, which with
           | `Violation _, `V | `Livelock, `L | `Incomplete, `I -> true
           | _ -> false)
         s.failures)
  in
  Table.make ~id:"E16" ~title:"Schedule exploration: the counterexample hunt comes back empty"
    ~header:[ "measure"; "count" ]
    ~notes:
      [
        "grid: seeds x 5 delay policies x (9 strategies + none) x {clean, corrupt-t0, storm}";
        "a failure row here would be a reproducible (seed, policy, strategy) counterexample";
      ]
    [
      [ "schedules explored"; fmt "%d" s.runs ];
      [ "reads audited"; fmt "%d" s.total_reads ];
      [ "aborts (all in corrupted pre-write windows)"; fmt "%d" s.total_aborts ];
      [ "regularity violations"; fmt "%d" (by_kind `V) ];
      [ "livelocks"; fmt "%d" (by_kind `L) ];
      [ "incomplete operations"; fmt "%d" (by_kind `I) ];
    ]

(* ------------------------------------------------------------------ *)

let e17_full_stack () =
  (* One projection for both floors: the same register, the same audit
     from the first completed write; only the packet count differs. *)
  let module Metrics = Sbft_sim.Metrics in
  let module Names = Sbft_sim.Metric_names in
  let project name ~packets runs =
    let w, r = latencies (List.map snd runs) in
    [
      name;
      fmt "%d" (w.count + r.count);
      f1 w.mean;
      f1 r.mean;
      fmt "%d"
        (sum (fun (sys, _) -> packets (Engine.metrics (System.engine sys))) runs
        / List.length seeds);
      total (fun (_, (reg : Register.t)) -> reg.aborted_reads ()) runs;
      total (fun (_, reg) -> violations_from_first_write reg) runs;
    ]
  in
  let datalink loss =
    project (fmt "datalink, loss=%.1f" loss)
      ~packets:(fun m -> Metrics.get m Names.dl_transmissions + Metrics.get m Names.dl_acks)
      (List.map
         (fun seed ->
           let transport =
             Sbft_channel.Network.Over_datalink { capacity = 4; loss; max_delay = 4 }
           in
           let sys = System.create ~seed ~transport (Config.make ~n:6 ~f:1 ~clients:3 ()) in
           let reg = Register.core sys in
           ignore (Workload.run ~spec:{ Workload.default with ops_per_client = 8 } reg);
           (sys, reg))
         seeds)
  in
  let direct =
    project "direct FIFO (reference)"
      ~packets:(fun m -> Metrics.get m Names.net_delivered)
      (List.map
         (fun (r : Scenario.run) -> (r.sys, r.reg))
         (cell { base with clients = 3; ops_per_client = 8 }))
  in
  Table.make ~id:"E17"
    ~title:"The full stack: register over stabilizing data-links over lossy non-FIFO channels"
    ~header:[ "transport"; "ops"; "w mean"; "r mean"; "packets/run"; "aborts"; "violations" ]
    ~notes:
      [
        "Over_datalink replaces the FIFO axiom with the [8]-style protocol per directed channel";
        "same register, same audit; only the floor under it changes";
      ]
    (direct :: List.map datalink [ 0.0; 0.2; 0.4 ])

(* ------------------------------------------------------------------ *)

let e18_kv_store () =
  let module Store = Sbft_kv.Store in
  let run ~shards ~doom =
    let gets = ref 0 and doomed_aborts = ref 0 and healthy_aborts = ref 0 in
    let viol = ref 0 and checked = ref 0 and wall = ref 0 and msgs = ref 0 and ops = ref 0 in
    List.iter
      (fun seed ->
        let kv = Store.create ~seed ~shards ~n:6 ~f:1 ~clients:3 () in
        let engine = Store.engine kv in
        let keys = Array.init 12 (fun i -> fmt "key-%d" i) in
        Array.iteri (fun i key -> Store.put kv ~client:(i mod 3) ~key ~value:(5000 + i) ()) keys;
        Store.quiesce kv;
        let doomed_shard = Store.shard_of_key kv keys.(0) in
        if doom then
          Sbft_sim.Engine.schedule engine ~delay:200 (fun () ->
              Store.apply_to_shard kv ~shard:doomed_shard (fun sys ->
                  ignore (Strategy.install_all sys Strategies.equivocate);
                  System.corrupt_everything sys ~severity:`Heavy));
        let rng = Rng.create seed in
        let version = ref 0 in
        let rec session c remaining =
          if remaining > 0 then begin
            let key = Rng.pick rng keys in
            let continue () =
              Sbft_sim.Engine.schedule engine ~delay:(Rng.int_in rng 3 15) (fun () ->
                  session c (remaining - 1))
            in
            if Rng.chance rng 0.3 then begin
              incr version;
              Store.put kv ~client:c ~key ~value:(9000 + (1000 * Int64.to_int seed) + !version)
                ~k:continue ()
            end
            else
              Store.get kv ~client:c ~key
                ~k:(fun o ->
                  incr gets;
                  (match o with
                  | History.Abort ->
                      if Store.shard_of_key kv key = doomed_shard then incr doomed_aborts
                      else incr healthy_aborts
                  | _ -> ());
                  continue ())
                ()
          end
        in
        for c = 0 to 2 do
          session c 25
        done;
        Store.quiesce kv;
        let c, v = Store.check_regular ~after:(if doom then 200 else 0) kv in
        checked := !checked + c;
        viol := !viol + v;
        wall := !wall + Sbft_sim.Engine.now engine;
        msgs := !msgs + Sbft_sim.Metrics.get (Sbft_sim.Engine.metrics engine) Sbft_sim.Metric_names.net_sent;
        ops := !ops + Store.ops_issued kv)
      seeds;
    [
      fmt "%d shard%s%s" shards (if shards = 1 then "" else "s") (if doom then " + shard disaster" else "");
      fmt "%d" !gets;
      fmt "%d" !doomed_aborts;
      fmt "%d" !healthy_aborts;
      f1 (float_of_int !msgs /. float_of_int (max 1 !ops));
      fmt "%d/%d" !viol !checked;
    ]
  in
  Table.make ~id:"E18" ~title:"KV store on the register: shard scaling and fault blast radius"
    ~header:
      [ "configuration"; "gets"; "aborts (doomed shard)"; "aborts (healthy)"; "msgs/op"; "violations/checked" ]
    ~notes:
      [
        "12 keys, 3 clients, mixed sessions; disaster = Byzantine takeover + heavy corruption of one shard";
        "expected: aborts confined to the doomed shard's keys, zero violations everywhere";
      ]
    [
      run ~shards:1 ~doom:false;
      run ~shards:4 ~doom:false;
      run ~shards:8 ~doom:false;
      run ~shards:1 ~doom:true;
      run ~shards:4 ~doom:true;
      run ~shards:8 ~doom:true;
    ]

(* ------------------------------------------------------------------ *)

type storm = { plan : Sbft_byz.Fault_plan.t; report : Sbft_core.Invariants.report; ok : bool }

let storm_session ~n ~f ~seed ~waves ~every =
  let problem =
    if f < 0 then Some (Printf.sprintf "-f must be at least 0 (got %d)" f)
    else if n <= 5 * f then Some (Printf.sprintf "-n %d must exceed 5f = %d (-f %d)" n (5 * f) f)
    else if waves < 0 then Some (Printf.sprintf "--waves must be at least 0 (got %d)" waves)
    else if every < 1 then Some (Printf.sprintf "--every must be at least 1 (got %d)" every)
    else None
  in
  match problem with
  | Some p -> Error p
  | None ->
      let sys = System.create ~seed (Config.make ~n ~f ~clients:3 ()) in
      let mon = Sbft_core.Invariants.create sys in
      let plan = Sbft_byz.Fault_plan.storm ~seed ~n ~f ~clients:3 ~waves ~every in
      Sbft_byz.Fault_plan.apply ~monitor:mon sys plan;
      let rng = Rng.create (Int64.add seed 17L) in
      let v = ref (1000 * Int64.to_int (Int64.rem seed 1000L)) in
      let rec loop c remaining =
        if remaining > 0 then begin
          let continue () =
            Engine.schedule (System.engine sys) ~delay:(Rng.int_in rng 3 20) (fun () ->
                loop c (remaining - 1))
          in
          if Rng.chance rng 0.4 then begin
            incr v;
            Sbft_core.Invariants.write mon ~client:c ~value:!v ~k:continue ()
          end
          else Sbft_core.Invariants.read mon ~client:c ~k:(fun _ -> continue ()) ()
        end
      in
      for c = n to n + 2 do
        loop c 40
      done;
      System.quiesce sys;
      let report = Sbft_core.Invariants.check mon in
      Ok { plan; report; ok = Sbft_core.Invariants.ok report }

let pp_storm fmt s =
  Format.fprintf fmt "@[<v>%a@,verdict: %s@]" Sbft_core.Invariants.pp_report s.report
    (if s.ok then "OK" else "BROKEN")

let e19_fault_storm () =
  let row ~waves ~every =
    let reports =
      List.map
        (fun seed ->
          match storm_session ~n:6 ~f:1 ~seed ~waves ~every with
          | Ok s -> s.report
          | Error e -> invalid_arg e)
        seeds
    in
    let min_cov =
      List.fold_left
        (fun acc (r : Sbft_core.Invariants.report) -> min acc r.min_coverage)
        max_int reports
    in
    [
      fmt "%d waves / %d ticks" waves every;
      total (fun (r : Sbft_core.Invariants.report) -> r.writes_checked) reports;
      total (fun (r : Sbft_core.Invariants.report) -> r.reads_checked) reports;
      (if min_cov = max_int then "-" else fmt "%d" min_cov);
      total (fun (r : Sbft_core.Invariants.report) -> r.coverage_failures) reports;
      total (fun (r : Sbft_core.Invariants.report) -> r.post_stab_aborts) reports;
      total (fun (r : Sbft_core.Invariants.report) -> r.regularity_violations) reports;
    ]
  in
  Table.make ~id:"E19"
    ~title:"Fault storms (Section VI unification): Byzantine-for-a-while servers heal like transients"
    ~header:
      [ "storm"; "writes"; "reads"; "min coverage"; "coverage fails"; "post-stab aborts"; "violations" ]
    ~notes:
      [
        "each wave: random corruption or Byzantine takeover (healed a wave later, stale state kept)";
        "checked live by the invariant monitor: Lemma 2 at every write completion, abort discipline on \
         every read; min coverage bound is 3f+1 = 4";
      ]
    [ row ~waves:3 ~every:400; row ~waves:6 ~every:250; row ~waves:10 ~every:150 ]

(* ------------------------------------------------------------------ *)

let e20_partition () =
  let row ~cut_for =
    (* At t=150, servers split 3/3 with the clients scattered; the cut
       heals after [cut_for] ticks. *)
    let plan =
      if cut_for = 0 then []
      else
        [
          (150, Fault_plan.Partition [ [ 0; 1; 2; 6 ]; [ 3; 4; 5; 7; 8 ] ]);
          (150 + cut_for, Fault_plan.Heal_partition);
        ]
    in
    let runs = cell { base with clients = 3; ops_per_client = 15; plan } in
    let w, r = latencies (regs runs) in
    [
      (if cut_for = 0 then "no partition" else fmt "3/3 cut for %d ticks" cut_for);
      f1 w.mean;
      fmt "%.0f" w.max;
      f1 r.mean;
      fmt "%.0f" r.max;
      total (fun (r : Scenario.run) -> Scenario.incomplete_ops (System.history r.sys)) runs;
      (* A partition corrupts no state, so the audit starts at the first
         completed write, not after the heal where [r.report] starts. *)
      total (fun (r : Scenario.run) -> violations_from_first_write r.reg) runs;
    ]
  in
  Table.make ~id:"E20"
    ~title:"Network partitions: an unbounded-delay window, absorbed by asynchrony"
    ~header:[ "episode"; "w mean"; "w max"; "r mean"; "r max"; "incomplete ops"; "violations" ]
    ~notes:
      [
        "reliable channels make a partition a delay, not a loss: parked traffic releases on heal";
        "ops caught by the cut finish after healing (worst-case latency tracks the episode length)";
      ]
    [ row ~cut_for:0; row ~cut_for:200; row ~cut_for:600; row ~cut_for:1500 ]

(* ------------------------------------------------------------------ *)

(* Checker at scale: the sweep vs the retired list-scan oracle on
   growing synthetic audit histories and a 10k-op n=31/f=6 run, with
   bit-for-bit report equality asserted on every row. *)
let e21_scale () =
  (* The sweep checker at scale: synthetic steady-state histories of
     growing size, plus a real n=31/f=6 run (Vukolić-survey territory —
     five times the quorum size the other experiments sweep) audited
     end to end.  Every row also runs the retired list-scan oracle and
     asserts report equality, so the speedup column is measured on
     verdicts known to be identical. *)
  let prec_int : int -> int -> bool = ( < ) in
  let time_us f =
    let t0 = Clock.now_ns () in
    let r = f () in
    (r, Clock.elapsed_s t0 *. 1e6)
  in
  let audit name h ~after ~ts_prec =
    let sweep, sweep_us = time_us (fun () -> Sbft_spec.Regularity.check ~after ~ts_prec h) in
    let oracle, oracle_us = time_us (fun () -> Sbft_spec.Regularity_oracle.check ~after ~ts_prec h) in
    if sweep <> oracle then failwith ("E21: sweep and oracle reports diverge on " ^ name);
    let writes = List.length (History.writes h) in
    [
      name;
      fmt "%d" (History.size h);
      fmt "%d" writes;
      fmt "%d" (History.size h - writes);
      fmt "%d" sweep.checked_reads;
      fmt "%d" (List.length sweep.violations);
      fmt "%.0f" sweep_us;
      fmt "%.0f" oracle_us;
      fmt "%.0fx" (oracle_us /. sweep_us);
    ]
  in
  let synthetic n_ops =
    let h = Benchmarks.synthetic_history ~seed:21L ~n_ops ~reads_per_write:9 in
    audit (fmt "synthetic %dk" (n_ops / 1000)) h ~after:0 ~ts_prec:prec_int
  in
  let real () =
    let r =
      execute
        { base with seed = 11L; n = 31; f = 6; clients = 5; ops_per_client = 2000; write_ratio = 0.1 }
    in
    audit "n=31 f=6 run" (System.history r.sys) ~after:r.after ~ts_prec:Mw_ts.prec
  in
  Table.make ~id:"E21"
    ~title:"Checker at scale: sweep vs retired scan, up to a 10k-op n=31/f=6 audit"
    ~header:
      [ "history"; "ops"; "writes"; "reads"; "checked"; "violations"; "sweep us"; "scan us"; "speedup" ]
    ~notes:
      [
        "both checkers produce bit-for-bit identical reports on every row (asserted)";
        "timings are wall-clock on the current machine; ratios are the portable signal";
        "real-run row audits the suffix after the first completed write, as E4 does";
      ]
    [ synthetic 1_000; synthetic 5_000; synthetic 10_000; real () ]

(* ------------------------------------------------------------------ *)

(* Observability overhead: one 10^5-op workload against a 16-shard
   store at every trace level, over 5 rounds that rotate the starting
   level.  Each level reports its median wall time and ops/s, and each
   traced level the median and quartiles of its per-round ratio to
   [off].  Fired thunks never differ across levels (the dial never
   perturbs the simulation); fired and sink events are asserted equal
   across a level's rounds. *)
let e22_observability () =
  (* What the trace dial costs on a heavy run: the same 10^5-op
     workload against a 16-shard store at every level, wall-clock
     timed, with one counting sink attached.  [Off] is the no-op fast
     path; [Sampled] head-samples whole spans, so the sink stream (what
     a JSONL artifact would hold) collapses by ~100x and unsampled
     operations build no events at all.  Host drift would swamp a
     single timing per level, so the levels run in [rounds] rounds,
     each starting one level later than the last, and each traced
     level is reported as the median and quartiles of its per-round
     ratio to [Off]. *)
  let module Trace = Sbft_sim.Trace in
  let module Store = Sbft_kv.Store in
  let clients = 8 and shards = 16 and keys = 64 in
  let ops_per_client = 12_500 (* x8 clients = 10^5 ops *) in
  let drive level =
    let t0 = Clock.now_ns () in
    let kv = Store.create ~seed:11L ~trace_level:level ~shards ~n:6 ~f:1 ~clients () in
    let engine = Store.engine kv in
    let sink_events = ref 0 in
    Trace.add_sink (Engine.trace engine) (fun ~time:_ _ -> incr sink_events);
    let key_arr = Array.init keys (fun i -> fmt "key-%d" i) in
    Array.iteri
      (fun i key -> Store.put kv ~client:(i mod clients) ~key ~value:(1000 + i) ())
      key_arr;
    Store.quiesce kv;
    let rng = Rng.create 14L in
    let rec session c remaining =
      if remaining > 0 then begin
        let key = Rng.pick rng key_arr in
        let continue () =
          Engine.schedule engine ~delay:(Rng.int_in rng 5 25) (fun () -> session c (remaining - 1))
        in
        if Rng.chance rng 0.3 then Store.put kv ~client:c ~key ~value:remaining ~k:continue ()
        else Store.get kv ~client:c ~key ~k:(fun _ -> continue ()) ()
      end
    in
    for c = 0 to clients - 1 do
      session c ops_per_client
    done;
    Store.quiesce kv;
    (Clock.elapsed_s t0, (Store.ops_issued kv, Engine.events_fired engine, !sink_events))
  in
  let levels = Array.of_list Trace.levels in
  let nlevels = Array.length levels and rounds = 5 in
  let runs = Array.make_matrix nlevels rounds (0.0, (0, 0, 0)) in
  for round = 0 to rounds - 1 do
    for i = 0 to nlevels - 1 do
      let l = (round + i) mod nlevels in
      runs.(l).(round) <- drive levels.(l)
    done
  done;
  let walls = Array.map (Array.map fst) runs in
  let row l =
    (* The dial never perturbs the simulation, and a level's sink sees
       the same stream every round. *)
    let ((ops, fired, sink_events) as counts) = snd runs.(l).(0) in
    if Array.exists (fun (_, c) -> c <> counts) runs.(l) then
      failwith ("E22: fired or sink events differ across rounds at " ^ Trace.level_to_string levels.(l));
    let wall = Stats.percentile walls.(l) 50.0 in
    let ratios = Array.init rounds (fun k -> walls.(l).(k) /. walls.(0).(k)) in
    let pct p = fmt "%+.1f%%" (100.0 *. (Stats.percentile ratios p -. 1.0)) in
    let vs_off = if l = 0 then "-" else fmt "%s [%s, %s]" (pct 50.0) (pct 25.0) (pct 75.0) in
    [
      Trace.level_to_string levels.(l);
      fmt "%d" ops;
      f2 wall;
      fmt "%.0f" (float_of_int ops /. wall);
      fmt "%d" fired;
      fmt "%d" sink_events;
      vs_off;
    ]
  in
  Table.make ~id:"E22" ~title:"Observability overhead: 10^5 ops over 16 shards, trace dial swept"
    ~header:[ "level"; "ops"; "wall s"; "ops/s"; "fired"; "sink events"; "vs off [q1, q3]" ]
    ~notes:
      [
        "identical workload and seeds at every level; only observation differs";
        fmt
          "%d rounds of the %d levels, each round starting one level later; wall s and ops/s \
           are per-level medians, vs off the median and quartiles of the per-round ratios"
          rounds nlevels;
        "fired and sink events are identical in every round (asserted)";
        "sampled records 1% of operations as whole span trees and builds no event for the rest";
        "timings are wall-clock on the current machine; ratios are the portable signal";
      ]
    (List.init nlevels row)

(* ------------------------------------------------------------------ *)

(* E23's and E24's fault: transient heavy corruption of shards 0 to
   [hit] - 1 at tick [at], watched by a detector bank clocked from it. *)
let fault_shards kv ~hit ~at ~window =
  Engine.schedule (Sbft_kv.Store.engine kv) ~delay:at (fun () ->
      for shard = 0 to hit - 1 do
        Sbft_kv.Store.apply_to_shard kv ~shard (fun sys ->
            System.corrupt_everything sys ~severity:`Heavy)
      done);
  Stabilization.attach ~window ~after:at kv

let e23_time_to_stabilize () =
  (* The PR-8 online detector under a fault-density sweep: a 16-shard
     Zipfian store takes transient heavy corruption on 1 / 4 / 8
     shards at t=250, and {!Stabilization} (K=3 clean windows of 40
     ticks) reports per-shard and fleet time-to-stabilize live, from
     op completions only.  Denser faults keep the fleet window dirty
     longer (any shard's abort dirties it) while each hit shard's own
     clock barely moves — blast radius in time rather than space. *)
  let module Store = Sbft_kv.Store in
  let shards = 16 and window = 40 and fault_at = 250 in
  let row ~hit =
    let gets = ref 0 and aborts = ref 0 and stabilized = ref 0 in
    let shard_tts = ref [] and fleet_tts = ref [] in
    List.iter
      (fun seed ->
        let kv =
          Store.create ~seed ~trace_level:Sbft_sim.Trace.Off ~series_window:window ~shards ~n:6
            ~f:1 ~clients:8 ()
        in
        let engine = Store.engine kv in
        let stab = fault_shards kv ~hit ~at:fault_at ~window in
        let o =
          Workload.run_kv
            ~spec:{ Workload.default_kv with kv_ops_per_client = 40; keys = 64 }
            kv
        in
        Stabilization.finalize stab ~now:(Engine.now engine);
        gets := !gets + o.Workload.issued_gets;
        aborts := !aborts + o.Workload.aborted_gets;
        stabilized := !stabilized + Stabilization.stabilized_shards stab;
        for s = 0 to hit - 1 do
          match Stabilization.time_to_stabilize stab s with
          | Some v -> shard_tts := float_of_int v :: !shard_tts
          | None -> ()
        done;
        match Stabilization.fleet_time_to_stabilize stab with
        | Some v -> fleet_tts := float_of_int v :: !fleet_tts
        | None -> ())
      seeds;
    let shard_s = Stats.summarize (Array.of_list !shard_tts) in
    let fleet_s = Stats.summarize (Array.of_list !fleet_tts) in
    [
      fmt "%d/%d shards hit" hit shards;
      fmt "%d" !gets;
      fmt "%d" !aborts;
      fmt "%d/%d" !stabilized (shards * List.length seeds);
      (if !shard_tts = [] then "-" else fmt "%.0f / %.0f" shard_s.mean shard_s.max);
      (if !fleet_tts = [] then "-" else fmt "%.0f / %.0f" fleet_s.mean fleet_s.max);
    ]
  in
  Table.make ~id:"E23"
    ~title:"Time-to-stabilize vs fault density: the online detector on a 16-shard Zipfian store"
    ~header:
      [ "fault density"; "gets"; "aborts"; "stabilized"; "shard tts mean/max"; "fleet tts mean/max" ]
    ~notes:
      [
        fmt "transient heavy corruption at t=%d; detector: %d consecutive clean %d-tick windows"
          fault_at 3 window;
        "tts = ticks from the fault to the start of the first clean streak, per shard and fleet-wide";
        "fleet windows are dirtied by any shard's abort, so fleet tts grows with density";
      ]
    [ row ~hit:1; row ~hit:4; row ~hit:8 ]

(* ------------------------------------------------------------------ *)

let e24_saturation_knee () =
  (* The open-loop generator swept across the saturation knee: an
     8-shard Zipfian store with 24 clients serves constant-rate
     arrivals while 2 shards take transient heavy corruption mid-run.
     Below the knee queue wait is ~0 and offered ≈ completed; past it
     the admission queues absorb, then shed, the excess — offered
     decouples from completed in a way no closed-loop driver can show,
     because a closed loop's arrival rate collapses to its completion
     rate by construction. *)
  let module Store = Sbft_kv.Store in
  let module Metrics = Sbft_sim.Metrics in
  let module Names = Sbft_sim.Metric_names in
  let shards = 8 and window = 40 and fault_at = 300 and duration = 1200 and max_queue = 128 in
  let row rate =
    let kv =
      Store.create ~seed:11L ~trace_level:Sbft_sim.Trace.Off ~series_window:window ~shards ~n:6
        ~f:1 ~clients:24 ()
    in
    let engine = Store.engine kv in
    let stab = fault_shards kv ~hit:2 ~at:fault_at ~window in
    let spec =
      {
        Loadgen.default with
        Loadgen.mode = Loadgen.Open_loop (Loadgen.Const rate);
        duration;
        keys = 64;
        max_queue;
      }
    in
    let o = Loadgen.run ~spec kv in
    Stabilization.finalize stab ~now:(Engine.now engine);
    let qwait_p99 =
      match Metrics.histogram (Engine.metrics engine) Names.loadgen_queue_wait_ticks with
      | None -> "-"
      | Some h ->
          let v, sat = Stats.hist_percentile_sat ~bounds:h.bounds ~counts:h.counts 99.0 in
          fmt "%s%.0f" (if sat then ">=" else "") v
    in
    [
      fmt "const %.2f/tick" rate;
      fmt "%d" o.Loadgen.offered;
      fmt "%d" o.Loadgen.completed;
      fmt "%d" o.Loadgen.rejected;
      fmt "%d" o.Loadgen.peak_queue;
      qwait_p99;
      fmt "%d/%d" (Stabilization.stabilized_shards stab) shards;
    ]
  in
  Table.make ~id:"E24"
    ~title:"Saturation knee: open-loop constant-rate arrivals vs an 8-shard store, 2 shards faulted"
    ~header:
      [ "offered rate"; "offered"; "completed"; "rejected"; "peak queue"; "qwait p99"; "stabilized" ]
    ~notes:
      [
        fmt "24 store clients, Zipf 1.1 over 64 keys, %d-tick run, transient heavy corruption \
             of shards 0-1 at t=%d" duration fault_at;
        fmt "per-shard admission queues cap at %d; arrivals beyond are shed (rejected)" max_queue;
        "below the knee offered ~= completed and qwait ~ 0; past it queueing delay, then \
         shedding, absorb the excess";
        "the full-scale run (10^6 ops, 64 shards) is the EXPERIMENTS.md E24 walkthrough — one \
         sbftreg kv --arrival invocation";
      ]
    [ row 0.1; row 0.3; row 0.6; row 1.2 ]

(* ------------------------------------------------------------------ *)

let table_fns =
  [
    ("e1", e1_lower_bound);
    ("e2", e2_termination);
    ("e3", e3_write_coverage);
    ("e4", e4_regularity);
    ("e5", e5_stabilization);
    ("e6", e6_bounded_labels);
    ("e7", e7_mwmr_order);
    ("e8", e8_baselines);
    ("e9", e9_tightness);
    ("e10", e10_quiescence);
    ("e11", e11_datalink);
    ("e13", e13_byzantine_clients);
    ("e14", e14_ablations);
    ("e15", e15_asynchrony);
    ("e16", e16_exploration);
    ("e17", e17_full_stack);
    ("e18", e18_kv_store);
    ("e19", e19_fault_storm);
    ("e20", e20_partition);
    ("e21", e21_scale);
    ("e22", e22_observability);
    ("e23", e23_time_to_stabilize);
    ("e24", e24_saturation_knee);
  ]

let by_id id = List.assoc_opt (String.lowercase_ascii id) table_fns

let ids = List.map fst table_fns
