(* One targeted test per lemma of the paper — the correctness proof as
   a suite, each test aimed at the lemma's worst-case schedule. *)

open Sbft_core
module H = Sbft_spec.History
module Network = Sbft_channel.Network

let outcome_is_value = function H.Value _ -> true | _ -> false

(* Lemma 1: every write terminates, even when the f Byzantine servers
   NACK everything and f correct servers are too slow to be counted in
   the first phase. *)
let test_lemma1_write_terminates_worst_case () =
  List.iter
    (fun seed ->
      let sys = System.create ~seed (Config.make ~n:6 ~f:1 ~clients:2 ()) in
      ignore (Sbft_byz.Strategy.install_all sys Sbft_byz.Strategies.nack_all);
      (* One correct server's channels crawl: its timestamp misses the
         writer's first phase, so it may legitimately NACK — the proof's
         "f correct that may send a NACK". *)
      Network.set_slow_node (System.network sys) 0 ~factor:50;
      let completed = ref 0 in
      let rec chain i =
        if i < 10 then System.write sys ~client:6 ~value:(100 + i) ~k:(fun () -> incr completed; chain (i + 1)) ()
      in
      chain 0;
      System.quiesce sys;
      Alcotest.(check int) (Printf.sprintf "10 writes complete (seed %Ld)" seed) 10 !completed)
    [ 1L; 2L; 3L ]

(* Lemma 2: the 3f+1 coverage bound at the completion instant, under
   the four Byzantine reply patterns of the proof's case analysis. *)
let test_lemma2_four_cases () =
  List.iter
    (fun (case, strategy) ->
      let sys = System.create ~seed:5L (Config.make ~n:6 ~f:1 ~clients:2 ()) in
      ignore (Sbft_byz.Strategy.install_all sys strategy);
      let rec chain i =
        if i < 8 then
          System.write sys ~client:6 ~value:(200 + i)
            ~k:(fun () ->
              match Client.last_write_ts (System.client sys 6) with
              | Some ts ->
                  let held = System.count_holding sys ~value:(200 + i) ~ts in
                  if held < 4 then
                    Alcotest.failf "case %s: write %d held by %d < 3f+1 servers" case i held;
                  chain (i + 1)
              | None -> Alcotest.fail "missing ts")
            ()
      in
      chain 0;
      System.quiesce sys)
    [
      ("replies-both-phases", Sbft_byz.Strategies.nack_all);
      ("mute-phase1-only", Sbft_byz.Strategies.mute_phase1);
      ("mute-phase2-only", Sbft_byz.Strategies.mute_phase2);
      ("crash-both-phases", Sbft_byz.Strategies.silent);
    ]

(* Lemmas 3 & 4: find_read_label terminates (and gathers enough safe
   servers) even from a corrupted label matrix — observable as: a
   freshly corrupted client can still read, repeatedly. *)
let test_lemma3_4_read_label_recovery () =
  List.iter
    (fun seed ->
      let sys = System.create ~seed (Config.make ~n:6 ~f:1 ~clients:2 ()) in
      System.write sys ~client:6 ~value:42 ();
      System.quiesce sys;
      (* Corrupt the idle reader's bookkeeping — matrix, safe set, all of
         it — several times in a row; every read must still terminate
         with the right value. *)
      for round = 1 to 5 do
        System.corrupt_client sys 7;
        let got = ref H.Incomplete in
        System.read sys ~client:7 ~k:(fun o -> got := o) ();
        System.quiesce sys;
        Alcotest.(check bool)
          (Printf.sprintf "read %d after client corruption (seed %Ld)" round seed)
          true
          (!got = H.Value 42)
      done)
    [ 11L; 12L; 13L ]

(* Lemma 6: reads terminate when Byzantine servers stonewall the read
   path entirely. *)
let test_lemma6_read_terminates_mute_readers () =
  let sys = System.create ~seed:21L (Config.make ~n:6 ~f:1 ~clients:2 ()) in
  ignore (Sbft_byz.Strategy.install_all sys (List.assoc "mute-readers" Sbft_byz.Strategies.all));
  System.write sys ~client:6 ~value:7 ();
  System.quiesce sys;
  let completed = ref 0 in
  let rec chain i =
    if i < 10 then System.read sys ~client:7 ~k:(fun _ -> incr completed; chain (i + 1)) ()
  in
  chain 0;
  System.quiesce sys;
  Alcotest.(check int) "10 reads complete" 10 !completed

(* Lemma 7, scenario 1: no concurrent write — the read returns exactly
   the last written value, under a stale-replaying Byzantine server. *)
let test_lemma7_scenario1 () =
  List.iter
    (fun seed ->
      let sys = System.create ~seed (Config.make ~n:6 ~f:1 ~clients:2 ()) in
      ignore (Sbft_byz.Strategy.install_all sys Sbft_byz.Strategies.stale_replay);
      let rec rounds i =
        if i < 10 then
          System.write sys ~client:6 ~value:(300 + i)
            ~k:(fun () ->
              System.read sys ~client:7
                ~k:(fun o ->
                  if o <> H.Value (300 + i) then
                    Alcotest.failf "quiet read %d returned %s, wanted %d (seed %Ld)" i
                      (match o with
                      | H.Value v -> string_of_int v
                      | H.Abort -> "abort"
                      | H.Incomplete -> "incomplete")
                      (300 + i) seed;
                  rounds (i + 1))
                ())
            ()
      in
      rounds 0;
      System.quiesce sys)
    [ 31L; 32L; 33L ]

(* Lemma 7, scenario 2: k writes race the read — the result must be the
   last completed write or one of the concurrent ones, never anything
   older. *)
let test_lemma7_scenario2 () =
  List.iter
    (fun seed ->
      let sys = System.create ~seed (Config.make ~n:6 ~f:1 ~clients:4 ()) in
      ignore (Sbft_byz.Strategy.install_all sys Sbft_byz.Strategies.stale_replay);
      (* w0 completes, then three writers race a reader. *)
      System.write sys ~client:6 ~value:400 ();
      System.quiesce sys;
      let outcome = ref H.Incomplete in
      System.write sys ~client:6 ~value:401 ();
      System.write sys ~client:7 ~value:402 ();
      System.write sys ~client:8 ~value:403 ();
      System.read sys ~client:9 ~k:(fun o -> outcome := o) ();
      System.quiesce sys;
      match !outcome with
      | H.Value v ->
          if not (List.mem v [ 400; 401; 402; 403 ]) then
            Alcotest.failf "racing read returned %d, outside {w0, w1..wk} (seed %Ld)" v seed
      | H.Abort -> Alcotest.failf "racing read aborted (seed %Ld)" seed
      | H.Incomplete -> Alcotest.failf "racing read incomplete (seed %Ld)" seed)
    [ 41L; 42L; 43L; 44L ]

(* Failure model: the writer may crash mid-write; readers must still
   terminate and regularity must hold whether or not the torn write is
   visible. *)
let test_failed_write_torn_visibility () =
  List.iter
    (fun seed ->
      let sys = System.create ~seed (Config.make ~n:6 ~f:1 ~clients:3 ()) in
      System.write sys ~client:6 ~value:500 ();
      System.quiesce sys;
      (* Start a write and crash the writer a few ticks in. *)
      System.write sys ~client:7 ~value:501 ();
      Sbft_sim.Engine.schedule (System.engine sys) ~delay:5 (fun () ->
          Network.crash (System.network sys) 7);
      System.quiesce sys;
      let got = ref [] in
      let rec reads i =
        if i < 6 then
          System.read sys ~client:8
            ~k:(fun o ->
              got := o :: !got;
              reads (i + 1))
            ()
      in
      reads 0;
      System.quiesce sys;
      Alcotest.(check int) "all reads terminate" 6 (List.length !got);
      List.iter
        (fun o ->
          match o with
          | H.Value v when v = 500 || v = 501 -> ()
          | H.Value v -> Alcotest.failf "read returned %d after torn write (seed %Ld)" v seed
          | _ -> Alcotest.failf "read failed after torn write (seed %Ld)" seed)
        !got;
      let r =
        Sbft_spec.Regularity.check ~ts_prec:Sbft_labels.Mw_ts.prec (System.history sys)
      in
      Alcotest.(check int) "regular with a failed write" 0 (List.length r.violations))
    [ 51L; 52L; 53L ]

(* Soak: a big deployment under a long storm, monitored. *)
let test_soak_large_deployment () =
  let n = 16 and f = 3 in
  let sys = System.create ~seed:61L (Config.make ~n ~f ~clients:4 ()) in
  let mon = Invariants.create sys in
  Sbft_byz.Fault_plan.apply ~monitor:mon sys
    (Sbft_byz.Fault_plan.storm ~seed:62L ~n ~f ~clients:4 ~waves:5 ~every:300);
  let rng = Sbft_sim.Rng.create 63L in
  let v = ref 0 in
  let rec loop c remaining =
    if remaining > 0 then begin
      let continue () =
        Sbft_sim.Engine.schedule (System.engine sys) ~delay:(Sbft_sim.Rng.int_in rng 5 20)
          (fun () -> loop c (remaining - 1))
      in
      if Sbft_sim.Rng.chance rng 0.35 then begin
        incr v;
        Invariants.write mon ~client:c ~value:!v ~k:continue ()
      end
      else Invariants.read mon ~client:c ~k:(fun _ -> continue ()) ()
    end
  in
  for c = n to n + 3 do
    loop c 50
  done;
  System.quiesce sys;
  let r = Invariants.check mon in
  if not (Invariants.ok r) then
    Alcotest.failf "soak broke: %s" (Format.asprintf "%a" Invariants.pp_report r);
  Alcotest.(check bool) "soak coverage bound 3f+1=10" true (r.min_coverage >= 10)

let suite =
  [
    Alcotest.test_case "Lemma 1: writes terminate, worst case" `Quick
      test_lemma1_write_terminates_worst_case;
    Alcotest.test_case "Lemma 2: four Byzantine cases" `Quick test_lemma2_four_cases;
    Alcotest.test_case "Lemmas 3-4: corrupted reader recovers" `Quick
      test_lemma3_4_read_label_recovery;
    Alcotest.test_case "Lemma 6: reads terminate vs mute-readers" `Quick
      test_lemma6_read_terminates_mute_readers;
    Alcotest.test_case "Lemma 7 scenario 1: quiet reads exact" `Quick test_lemma7_scenario1;
    Alcotest.test_case "Lemma 7 scenario 2: racing reads bounded" `Quick test_lemma7_scenario2;
    Alcotest.test_case "failure model: torn writes" `Quick test_failed_write_torn_visibility;
    Alcotest.test_case "soak: n=16 f=3 under storm" `Slow test_soak_large_deployment;
  ]
