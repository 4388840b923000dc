(* Tests for the three baseline registers: each is correct inside its
   own fault model and breaks outside it — the E8 resilience matrix as
   assertions. *)

module H = Sbft_spec.History
module B = Sbft_baselines.Baseline

let prec = Sbft_labels.Unbounded.prec

(* --- ABD (crash-tolerant atomic) ------------------------------------ *)

let test_abd_sequential () =
  let sys = B.create ~seed:1L B.Abd ~n:3 ~f:1 ~clients:2 () in
  let result = ref H.Incomplete in
  B.write sys ~client:3 ~value:10
    ~k:(fun () -> B.read sys ~client:4 ~k:(fun o -> result := o) ())
    ();
  B.quiesce sys;
  Alcotest.(check bool) "reads the write" true (!result = H.Value 10)

let after_first_write (reg : Sbft_harness.Register.t) =
  Option.value ~default:max_int (reg.first_write_completion ())

let test_abd_linearizable_workload () =
  let sys = B.create ~seed:2L B.Abd ~n:3 ~f:1 ~clients:3 () in
  let reg = Sbft_harness.Register.baseline sys in
  let _ = Sbft_harness.Workload.run ~spec:{ Sbft_harness.Workload.default with ops_per_client = 12 } reg in
  let c = reg.check_atomic ~after:(after_first_write reg) () in
  Alcotest.(check int) "linearizable" 0 c.violations

let test_abd_survives_crash () =
  let sys = B.create ~seed:3L B.Abd ~n:3 ~f:1 ~clients:2 () in
  B.crash_server sys 2;
  let result = ref H.Incomplete in
  B.write sys ~client:3 ~value:5
    ~k:(fun () -> B.read sys ~client:4 ~k:(fun o -> result := o) ())
    ();
  B.quiesce sys;
  Alcotest.(check bool) "majority suffices" true (!result = H.Value 5)

let test_abd_broken_by_byzantine () =
  let sys = B.create ~seed:4L B.Abd ~n:3 ~f:1 ~clients:2 () in
  B.make_byzantine sys 2;
  B.write sys ~client:3 ~value:5 ~k:(fun () -> B.read sys ~client:4 ()) ();
  B.quiesce sys;
  let r = Sbft_spec.Regularity.check ~ts_prec:prec (B.history sys) in
  (* The equivocating server's huge timestamp wins the read: garbage. *)
  Alcotest.(check bool) "byzantine server defeats ABD" false (r.Sbft_spec.Regularity.violations = [])

let test_abd_broken_by_poison () =
  let sys = B.create ~seed:5L B.Abd ~n:3 ~f:1 ~clients:2 () in
  B.poison sys ~ids:[ 0 ];
  let got = ref [] in
  let rec loop i =
    if i < 5 then
      B.write sys ~client:3 ~value:(100 + i)
        ~k:(fun () -> B.read sys ~client:4 ~k:(fun o -> got := o :: !got; loop (i + 1)) ())
        ()
  in
  loop 0;
  B.quiesce sys;
  (* The first read may draw a poison-free majority, but once any read
     write-backs the planted pair it owns every later quorum. *)
  Alcotest.(check bool) "poison seen" true (List.exists (fun o -> o = H.Value (-31337)) !got);
  Alcotest.(check bool) "and never shaken off" true (List.hd !got = H.Value (-31337))

(* --- Malkhi-Reiter safe ---------------------------------------------- *)

let test_mr_safe_sequential () =
  let sys = B.create ~seed:1L B.Mr_safe ~n:6 ~f:1 ~clients:2 () in
  let result = ref H.Incomplete in
  B.write sys ~client:6 ~value:20
    ~k:(fun () -> B.read sys ~client:7 ~k:(fun o -> result := o) ())
    ();
  B.quiesce sys;
  Alcotest.(check bool) "reads the write" true (!result = H.Value 20)

let test_mr_safe_is_safe_under_byzantine () =
  let sys = B.create ~seed:2L B.Mr_safe ~n:6 ~f:1 ~clients:3 () in
  B.make_byzantine sys 5;
  let reg = Sbft_harness.Register.baseline sys in
  let _ = Sbft_harness.Workload.run ~spec:{ Sbft_harness.Workload.default with ops_per_client = 12 } reg in
  let c = reg.check_safe ~after:(after_first_write reg) () in
  Alcotest.(check int) "safe despite f byzantine" 0 c.violations

let test_mr_safe_broken_by_poison () =
  let sys = B.create ~seed:3L B.Mr_safe ~n:6 ~f:1 ~clients:2 () in
  B.poison sys ~ids:[ 0; 1 ];
  let got = ref H.Incomplete in
  B.write sys ~client:6 ~value:9
    ~k:(fun () -> B.read sys ~client:7 ~k:(fun o -> got := o) ())
    ();
  B.quiesce sys;
  Alcotest.(check bool) "poison outvotes the writer" true (!got = H.Value (-31337))

let test_mr_safe_single_writer () =
  let sys = B.create ~seed:4L B.Mr_safe ~n:6 ~f:1 ~clients:3 () in
  List.iter
    (fun client ->
      match B.write sys ~client ~value:1 () with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "client %d wrote to a single-writer register" client)
    [ 7; 8 ];
  Alcotest.(check int) "nothing recorded" 0 (H.size (B.history sys))

(* --- Kanjani et al. MWMR regular -------------------------------------- *)

let test_kanjani_sequential () =
  let sys = B.create ~seed:1L B.Kanjani ~n:4 ~f:1 ~clients:2 () in
  let result = ref H.Incomplete in
  B.write sys ~client:4 ~value:30
    ~k:(fun () -> B.read sys ~client:5 ~k:(fun o -> result := o) ())
    ();
  B.quiesce sys;
  Alcotest.(check bool) "reads the write" true (!result = H.Value 30)

let test_kanjani_regular_clean () =
  let sys = B.create ~seed:2L B.Kanjani ~n:4 ~f:1 ~clients:3 () in
  let reg = Sbft_harness.Register.baseline sys in
  let _ = Sbft_harness.Workload.run ~spec:{ Sbft_harness.Workload.default with ops_per_client = 12 } reg in
  let c = reg.check_regular ~after:(after_first_write reg) () in
  Alcotest.(check int) "regular in its own model" 0 c.violations

let test_kanjani_regular_under_byzantine () =
  let sys = B.create ~seed:3L B.Kanjani ~n:4 ~f:1 ~clients:3 () in
  B.make_byzantine sys 3;
  let reg = Sbft_harness.Register.baseline sys in
  let o = Sbft_harness.Workload.run ~spec:{ Sbft_harness.Workload.default with ops_per_client = 12 } reg in
  Alcotest.(check bool) "live" false o.livelocked;
  let c = reg.check_regular ~after:(after_first_write reg) () in
  Alcotest.(check int) "regular with f byzantine" 0 c.violations

let test_kanjani_broken_by_poison () =
  let sys = B.create ~seed:4L B.Kanjani ~n:4 ~f:1 ~clients:2 () in
  B.poison sys ~ids:[ 0; 1 ];
  let got = ref [] in
  let rec loop i =
    if i < 5 then
      B.write sys ~client:4 ~value:(100 + i)
        ~k:(fun () -> B.read sys ~client:5 ~k:(fun o -> got := o :: !got; loop (i + 1)) ())
        ()
  in
  loop 0;
  B.quiesce sys;
  (* max+1 overflowed: with f+1 poisoned servers every read quorum
     certifies the planted pair, forever. *)
  Alcotest.(check bool) "poison seen" true (List.exists (fun o -> o = H.Value (-31337)) !got);
  Alcotest.(check bool) "never recovers" true (List.hd !got = H.Value (-31337))

let test_kanjani_ts_grows () =
  let sys = B.create ~seed:5L B.Kanjani ~n:4 ~f:1 ~clients:2 () in
  let before = B.max_ts sys in
  let rec loop i =
    if i < 20 then B.write sys ~client:4 ~value:(200 + i) ~k:(fun () -> loop (i + 1)) ()
  in
  loop 0;
  B.quiesce sys;
  Alcotest.(check bool) "timestamps grow with use" true (B.max_ts sys >= before + 20)

let suite =
  [
    Alcotest.test_case "abd: sequential" `Quick test_abd_sequential;
    Alcotest.test_case "abd: linearizable workload" `Quick test_abd_linearizable_workload;
    Alcotest.test_case "abd: survives crash" `Quick test_abd_survives_crash;
    Alcotest.test_case "abd: broken by byzantine" `Quick test_abd_broken_by_byzantine;
    Alcotest.test_case "abd: broken by poison" `Quick test_abd_broken_by_poison;
    Alcotest.test_case "mr-safe: sequential" `Quick test_mr_safe_sequential;
    Alcotest.test_case "mr-safe: safe under byzantine" `Quick test_mr_safe_is_safe_under_byzantine;
    Alcotest.test_case "mr-safe: broken by poison" `Quick test_mr_safe_broken_by_poison;
    Alcotest.test_case "mr-safe: only client n writes" `Quick test_mr_safe_single_writer;
    Alcotest.test_case "kanjani: sequential" `Quick test_kanjani_sequential;
    Alcotest.test_case "kanjani: regular clean" `Quick test_kanjani_regular_clean;
    Alcotest.test_case "kanjani: regular under byzantine" `Quick test_kanjani_regular_under_byzantine;
    Alcotest.test_case "kanjani: broken by poison" `Quick test_kanjani_broken_by_poison;
    Alcotest.test_case "kanjani: timestamps grow" `Quick test_kanjani_ts_grows;
  ]
