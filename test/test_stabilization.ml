(* Pseudo-stabilization and Byzantine-tolerance tests: the paper's
   Theorems 2-3 as executable checks, across seeds, strategies and
   corruption modes. *)

open Sbft_core
module H = Sbft_spec.History

let run_and_check ?(n = 6) ?(f = 1) ?(clients = 4) ?strategy ?(corrupt = fun _ -> ()) ~seed () =
  let sys = System.create ~seed (Config.make ~n ~f ~clients ()) in
  (match strategy with Some s -> ignore (Sbft_byz.Strategy.install_all sys s) | None -> ());
  corrupt sys;
  let reg = Sbft_harness.Register.core sys in
  let o =
    Sbft_harness.Workload.run
      ~spec:{ Sbft_harness.Workload.default with ops_per_client = 15; write_ratio = 0.35 }
      reg
  in
  Alcotest.(check bool) "no livelock" false o.livelocked;
  let after = Option.value ~default:max_int (H.first_write_completion (System.history sys)) in
  let c = reg.check_regular ~after () in
  if c.violations > 0 then
    Alcotest.failf "regularity violations (seed %Ld): %s" seed (String.concat "; " c.detail);
  (sys, reg)

let seeds = [ 101L; 202L; 303L ]

let test_clean_runs_regular () = List.iter (fun seed -> ignore (run_and_check ~seed ())) seeds

let test_every_strategy_regular () =
  List.iter
    (fun (_name, strategy) -> List.iter (fun seed -> ignore (run_and_check ~strategy ~seed ())) seeds)
    Sbft_byz.Strategies.all

let test_corrupted_start_recovers () =
  List.iter
    (fun seed ->
      ignore
        (run_and_check ~strategy:Sbft_byz.Strategies.stale_replay
           ~corrupt:(fun sys -> System.corrupt_everything sys ~severity:`Heavy)
           ~seed ()))
    seeds

let test_channel_corruption_recovers () =
  List.iter
    (fun seed ->
      ignore (run_and_check ~corrupt:(fun sys -> System.corrupt_channels sys ~density:0.5) ~seed ()))
    seeds

let test_midrun_corruption_recovers () =
  (* Pseudo-stabilization is a suffix property: corrupt mid-run, then
     check regularity only after the next completed write. *)
  List.iter
    (fun seed ->
      let sys = System.create ~seed (Config.make ~n:6 ~f:1 ~clients:4 ()) in
      let engine = System.engine sys in
      Sbft_sim.Engine.schedule engine ~delay:300 (fun () ->
          List.iter (fun id -> System.corrupt_server sys id ~severity:`Heavy) [ 0; 1; 2; 3; 4; 5 ];
          System.corrupt_channels sys ~density:0.3);
      let reg = Sbft_harness.Register.core sys in
      let o =
        Sbft_harness.Workload.run
          ~spec:{ Sbft_harness.Workload.default with ops_per_client = 25; write_ratio = 0.4 }
          reg
      in
      Alcotest.(check bool) "no livelock" false o.livelocked;
      (* Find the first write completing after the corruption instant. *)
      let after =
        List.fold_left
          (fun acc op ->
            match op with
            | H.Write { inv; resp = Some r; _ } when inv >= 300 -> min acc r
            | _ -> acc)
          max_int
          (H.ops (System.history sys))
      in
      let c = reg.check_regular ~after () in
      if c.violations > 0 then
        Alcotest.failf "post-corruption violations (seed %Ld): %s" seed
          (String.concat "; " c.detail))
    seeds

let test_write_coverage_lemma2 () =
  List.iter
    (fun seed ->
      let sys = System.create ~seed (Config.make ~n:6 ~f:1 ~clients:2 ()) in
      ignore (Sbft_byz.Strategy.install_all sys Sbft_byz.Strategies.silent);
      let rec chain i =
        if i < 15 then
          System.write sys ~client:6 ~value:(700 + i)
            ~k:(fun () ->
              (match Client.last_write_ts (System.client sys 6) with
              | Some ts ->
                  let held = System.count_holding sys ~value:(700 + i) ~ts in
                  if held < 4 then Alcotest.failf "write %d held by only %d < 3f+1 servers" i held
              | None -> Alcotest.fail "missing write ts");
              chain (i + 1))
            ()
      in
      chain 0;
      System.quiesce sys)
    seeds

let test_abort_only_before_first_write () =
  (* After heavy corruption, pre-write reads may abort; post-write reads
     must return values. *)
  let sys = System.create ~seed:404L (Config.make ~n:6 ~f:1 ~clients:3 ()) in
  System.corrupt_everything sys ~severity:`Heavy;
  let pre = ref [] and post = ref [] in
  System.read sys ~client:6 ~k:(fun o -> pre := o :: !pre) ();
  System.quiesce sys;
  System.write sys ~client:6 ~value:1 ();
  System.quiesce sys;
  for c = 6 to 8 do
    System.read sys ~client:c ~k:(fun o -> post := o :: !post) ()
  done;
  System.quiesce sys;
  List.iter
    (fun o ->
      match o with
      | H.Value _ -> ()
      | H.Abort -> Alcotest.fail "post-write read aborted"
      | H.Incomplete -> Alcotest.fail "post-write read incomplete")
    !post

let test_aborted_reads_counted () =
  let sys = System.create ~seed:404L (Config.make ~n:6 ~f:1 ~clients:3 ()) in
  System.corrupt_everything sys ~severity:`Heavy;
  System.read sys ~client:6 ();
  System.quiesce sys;
  (* Whether this particular read aborted is seed-dependent; the abort
     latency histogram must count what the history records either way
     (the read completed, so no sample is an incomplete one). *)
  let aborts =
    match
      Sbft_sim.Metrics.histogram (Sbft_sim.Engine.metrics (System.engine sys))
        Sbft_sim.Metric_names.read_abort_ticks
    with
    | Some h -> h.count
    | None -> 0
  in
  Alcotest.(check int) "counter matches history" (H.aborted_reads (System.history sys)) aborts

let qcheck_regular_after_stabilization =
  QCheck.Test.make ~name:"system: regularity holds for random seeds and strategies" ~count:15
    QCheck.(pair (int_bound 100_000) (int_bound (List.length Sbft_byz.Strategies.all - 1)))
    (fun (seed, si) ->
      let _, strategy = List.nth Sbft_byz.Strategies.all si in
      let sys = System.create ~seed:(Int64.of_int seed) (Config.make ~n:6 ~f:1 ~clients:3 ()) in
      ignore (Sbft_byz.Strategy.install_all sys strategy);
      System.corrupt_everything sys ~severity:`Light;
      let reg = Sbft_harness.Register.core sys in
      let o =
        Sbft_harness.Workload.run
          ~spec:{ Sbft_harness.Workload.default with ops_per_client = 10 }
          reg
      in
      let after = Option.value ~default:max_int (H.first_write_completion (System.history sys)) in
      (not o.livelocked) && (reg.check_regular ~after ()).violations = 0)

let suite =
  [
    Alcotest.test_case "clean runs are regular" `Quick test_clean_runs_regular;
    Alcotest.test_case "every Byzantine strategy tolerated" `Slow test_every_strategy_regular;
    Alcotest.test_case "corrupted start recovers" `Quick test_corrupted_start_recovers;
    Alcotest.test_case "channel corruption recovers" `Quick test_channel_corruption_recovers;
    Alcotest.test_case "mid-run corruption recovers" `Quick test_midrun_corruption_recovers;
    Alcotest.test_case "write coverage (Lemma 2)" `Quick test_write_coverage_lemma2;
    Alcotest.test_case "aborts only before first write" `Quick test_abort_only_before_first_write;
    Alcotest.test_case "aborted reads counted" `Quick test_aborted_reads_counted;
    QCheck_alcotest.to_alcotest qcheck_regular_after_stabilization;
  ]
