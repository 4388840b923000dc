(* Tests for the extensions: one writer (§IV-B), Byzantine clients
   (§VI remark), the forwarding ablation flag and the schedule
   explorer. *)

open Sbft_core
module H = Sbft_spec.History

(* --- one writer (§IV-B) ---------------------------------------------- *)

(* The single-writer register is [System] with one client that writes:
   here the first client endpoint, [n] = 6. *)
let writer = 6

let test_swmr_write_read () =
  let sys = System.create ~seed:2L (Config.make ~n:6 ~f:1 ~clients:3 ()) in
  let got = ref H.Incomplete in
  System.write sys ~client:writer ~value:44
    ~k:(fun () -> System.read sys ~client:7 ~k:(fun o -> got := o) ())
    ();
  System.quiesce sys;
  Alcotest.(check bool) "round trip" true (!got = H.Value 44)

let chain_writes sys ~count ~base =
  let rec chain i =
    if i < count then System.write sys ~client:writer ~value:(base + i) ~k:(fun () -> chain (i + 1)) ()
  in
  chain 0;
  System.quiesce sys

let test_swmr_never_retries () =
  (* Lemma 1 exactly: a single writer gets its 2f+1 ACKs at the paper's
     wait point, so the retry path never fires. *)
  let sys = System.create ~seed:3L (Config.make ~n:6 ~f:1 ~clients:3 ()) in
  chain_writes sys ~count:30 ~base:600;
  let m = Sbft_sim.Engine.metrics (System.engine sys) in
  Alcotest.(check int) "zero retries with a single writer" 0
    (Sbft_sim.Metrics.get m "client.write_retries")

let test_swmr_consecutive_always_ordered () =
  let sys = System.create ~seed:4L (Config.make ~n:6 ~f:1 ~clients:2 ()) in
  chain_writes sys ~count:20 ~base:800;
  let wts =
    List.filter_map (function H.Write { ts = Some t; _ } -> Some t | _ -> None)
      (H.ops (System.history sys))
  in
  let rec adjacent_ordered = function
    | a :: (b :: _ as rest) -> Sbft_labels.Mw_ts.prec a b && adjacent_ordered rest
    | _ -> true
  in
  Alcotest.(check int) "all writes completed" 20 (List.length wts);
  Alcotest.(check bool) "every adjacent pair label-ordered" true (adjacent_ordered wts)

(* --- Byzantine clients ------------------------------------------------- *)

let test_flooding_reader_harmless () =
  let sys = System.create ~seed:5L (Config.make ~n:6 ~f:1 ~clients:4 ()) in
  Sbft_byz.Byz_client.flood sys ~client:6 ~period:3 ~until:1500;
  let got = ref [] in
  System.write sys ~client:7 ~value:31
    ~k:(fun () ->
      let rec reads i =
        if i < 8 then
          System.read sys ~client:8
            ~k:(fun o ->
              got := o :: !got;
              reads (i + 1))
            ()
      in
      reads 0)
    ();
  System.quiesce sys;
  Alcotest.(check int) "all honest reads answered" 8 (List.length !got);
  List.iter (fun o -> Alcotest.(check bool) "fresh value" true (o = H.Value 31)) !got

let test_flooding_cannot_change_server_state () =
  let sys = System.create ~seed:6L (Config.make ~n:6 ~f:1 ~clients:3 ()) in
  System.write sys ~client:7 ~value:52 ();
  System.quiesce sys;
  let before = System.server_states sys in
  Sbft_byz.Byz_client.flood sys ~client:6 ~period:2 ~until:800;
  System.quiesce sys;
  (* Byzantine READ/FLUSH/COMPLETE_READ junk must not move value/ts.
     (Write_req junk could — but Msg.garbage forges those too, and
     correct servers adopt any write; what matters is that honest reads
     outvote it, checked in the previous test.  Here the flood's junk
     may include Write_req, so compare only that a subsequent honest
     write restores agreement.) *)
  ignore before;
  System.write sys ~client:7 ~value:53 ();
  System.quiesce sys;
  let fresh =
    List.filter (fun (_, v, _) -> v = 53) (System.server_states sys)
  in
  Alcotest.(check bool) "honest write re-scrubs every correct server" true (List.length fresh >= 5)

let test_ghost_reader_state_bounded () =
  let sys = System.create ~seed:7L (Config.make ~n:6 ~f:1 ~clients:3 ()) in
  Sbft_byz.Byz_client.ghost_reader sys ~client:6;
  Sbft_byz.Byz_client.ghost_reader sys ~client:7;
  System.quiesce sys;
  (* Each server holds at most one running_read entry per client — the
     ghost cannot grow state beyond the client count. *)
  List.iter
    (fun sid ->
      let rr = Server.running_readers (System.server sys sid) in
      Alcotest.(check bool) "bounded by clients" true (List.length rr <= 3))
    [ 0; 1; 2; 3; 4; 5 ]

let test_byz_handler_survives_client_creation () =
  (* Client automata are created on first use; creating one for a
     compromised endpoint must not reinstall the correct handler.  The
     Byzantine handlers ignore everything, so a read started on their
     automata never completes, while an honest client's does. *)
  let sys = System.create ~seed:9L (Config.make ~n:6 ~f:1 ~clients:3 ()) in
  Sbft_byz.Byz_client.flood sys ~client:6 ~period:5 ~until:300;
  Sbft_byz.Byz_client.ghost_reader sys ~client:7;
  ignore (System.client sys 6);
  System.corrupt_everything sys ~severity:`Light;
  System.quiesce sys;
  let answered = Array.make 3 false in
  List.iter
    (fun c -> System.read sys ~client:c ~k:(fun _ -> answered.(c - 6) <- true) ())
    [ 6; 7; 8 ];
  System.quiesce sys;
  Alcotest.(check bool) "flooder keeps its handler" false answered.(0);
  Alcotest.(check bool) "ghost keeps its handler" false answered.(1);
  Alcotest.(check bool) "honest client answered" true answered.(2)

(* --- forwarding flag --------------------------------------------------- *)

let test_forwarding_flag_off () =
  let cfg = Config.make ~forward_to_readers:false ~n:6 ~f:1 ~clients:3 () in
  let sys = System.create ~seed:8L cfg in
  (* Register a reader, then write: without forwarding the reader's
     pending read is fed only by its own replies. *)
  let got = ref H.Incomplete in
  System.write sys ~client:6 ~value:61
    ~k:(fun () -> System.read sys ~client:7 ~k:(fun o -> got := o) ())
    ();
  System.quiesce sys;
  Alcotest.(check bool) "register still works without forwarding" true (!got = H.Value 61)

(* --- explorer ----------------------------------------------------------- *)

let test_explorer_finds_nothing () =
  let s = Sbft_harness.Explorer.explore ~seeds:1 ~ops_per_client:8 () in
  Alcotest.(check int) "no failures on the default grid" 0 (List.length s.failures);
  Alcotest.(check int) "grid size: 5 x (10 strategies x 2 modes + 1 storm)" 105 s.runs;
  Alcotest.(check bool) "reads were audited" true (s.total_reads > 0)

let test_explorer_catches_planted_bug () =
  (* Sanity of the harness itself: explore an unsafe deployment (n = 5f)
     and make sure the machinery can report failures at all. *)
  let open Sbft_harness in
  let s = Explorer.explore ~n:5 ~f:1 ~seeds:2 ~ops_per_client:10 () in
  (* n=5 is below the bound: some schedule in the grid should misbehave
     (violation or abort-livelock); if every single one passes, the
     explorer is suspiciously blind. *)
  Alcotest.(check bool) "below-bound deployment trips the explorer" true
    (s.failures <> [] || s.total_aborts > 0)

let suite =
  [
    Alcotest.test_case "swmr: write/read" `Quick test_swmr_write_read;
    Alcotest.test_case "swmr: never retries (Lemma 1)" `Quick test_swmr_never_retries;
    Alcotest.test_case "swmr: consecutive writes ordered" `Quick test_swmr_consecutive_always_ordered;
    Alcotest.test_case "byz client: flood harmless" `Quick test_flooding_reader_harmless;
    Alcotest.test_case "byz client: scrubbed after flood" `Quick test_flooding_cannot_change_server_state;
    Alcotest.test_case "byz client: ghost state bounded" `Quick test_ghost_reader_state_bounded;
    Alcotest.test_case "byz client: handler survives client creation" `Quick
      test_byz_handler_survives_client_creation;
    Alcotest.test_case "forwarding flag off" `Quick test_forwarding_flag_off;
    Alcotest.test_case "explorer: default grid clean" `Slow test_explorer_finds_nothing;
    Alcotest.test_case "explorer: catches below-bound" `Slow test_explorer_catches_planted_bug;
  ]
