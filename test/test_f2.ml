(* Higher-resilience deployments: the f = 2 (n = 11) configuration run
   through the same gauntlet as the f = 1 suites, plus f = 0 (crash-free
   degenerate case) sanity. *)

open Sbft_core
module H = Sbft_spec.History

let audit ?(strategy = None) ?(corrupt = false) ~n ~f ~seed () =
  let sys = System.create ~seed (Config.make ~n ~f ~clients:4 ()) in
  (match strategy with Some s -> ignore (Sbft_byz.Strategy.install_all sys s) | None -> ());
  if corrupt then System.corrupt_everything sys ~severity:`Heavy;
  let reg = Sbft_harness.Register.core sys in
  let o =
    Sbft_harness.Workload.run ~spec:{ Sbft_harness.Workload.default with ops_per_client = 12 } reg
  in
  Alcotest.(check bool) "live" false o.livelocked;
  let after = Option.value ~default:max_int (H.first_write_completion (System.history sys)) in
  let c = reg.check_regular ~after () in
  if c.violations > 0 then
    Alcotest.failf "n=%d f=%d seed=%Ld: %s" n f seed (String.concat "; " c.detail)

let test_f2_every_strategy () =
  List.iter
    (fun (_, s) -> audit ~strategy:(Some s) ~n:11 ~f:2 ~seed:71L ())
    Sbft_byz.Strategies.all

let test_f2_corrupted_start () =
  List.iter
    (fun seed ->
      audit ~strategy:(Some Sbft_byz.Strategies.stale_replay) ~corrupt:true ~n:11 ~f:2 ~seed ())
    [ 72L; 73L ]

let test_f2_write_coverage () =
  (* Lemma 2 at f=2: bound is 3f+1 = 7. *)
  let sys = System.create ~seed:74L (Config.make ~n:11 ~f:2 ~clients:2 ()) in
  ignore (Sbft_byz.Strategy.install_all sys Sbft_byz.Strategies.silent);
  let rec chain i =
    if i < 10 then
      System.write sys ~client:11 ~value:(100 + i)
        ~k:(fun () ->
          (match Client.last_write_ts (System.client sys 11) with
          | Some ts ->
              let held = System.count_holding sys ~value:(100 + i) ~ts in
              if held < 7 then Alcotest.failf "coverage %d < 7 at write %d" held i
          | None -> Alcotest.fail "missing ts");
          chain (i + 1))
        ()
  in
  chain 0;
  System.quiesce sys

let test_f0_degenerate () =
  (* f = 0: a single server would do but n = 1 also exercises the
     degenerate quorum arithmetic (quorum 1, threshold 1). *)
  let sys = System.create ~seed:75L (Config.make ~n:1 ~f:0 ~clients:2 ()) in
  let got = ref H.Incomplete in
  System.write sys ~client:1 ~value:9
    ~k:(fun () -> System.read sys ~client:2 ~k:(fun o -> got := o) ())
    ();
  System.quiesce sys;
  Alcotest.(check bool) "n=1 f=0 works" true (!got = H.Value 9)

let test_f2_theorem1_bound () =
  let below = Sbft_byz.Theorem1.run_protocol ~n:10 ~f:2 ~seed:11L in
  let at = Sbft_byz.Theorem1.run_protocol ~n:11 ~f:2 ~seed:11L in
  Alcotest.(check bool) "n=10 breaks" true (below.violation || below.aborted);
  Alcotest.(check bool) "n=11 fine" false (at.violation || at.aborted)

let test_f3_spot_check () =
  audit ~strategy:(Some Sbft_byz.Strategies.equivocate) ~corrupt:true ~n:16 ~f:3 ~seed:76L ()

let suite =
  [
    Alcotest.test_case "f=2: every strategy" `Slow test_f2_every_strategy;
    Alcotest.test_case "f=2: corrupted start" `Quick test_f2_corrupted_start;
    Alcotest.test_case "f=2: write coverage >= 7" `Quick test_f2_write_coverage;
    Alcotest.test_case "f=0: degenerate n=1" `Quick test_f0_degenerate;
    Alcotest.test_case "f=2: Theorem 1 bound" `Quick test_f2_theorem1_bound;
    Alcotest.test_case "f=3: spot check" `Slow test_f3_spot_check;
  ]
