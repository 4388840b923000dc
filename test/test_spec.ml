(* Tests for histories and the three consistency checkers, on hand-built
   histories with known verdicts.  Timestamps are plain ints here with
   [<] as the protocol order. *)

module H = Sbft_spec.History
module Reg = Sbft_spec.Regularity
module Safe = Sbft_spec.Safety
module Atom = Sbft_spec.Atomicity

let prec = ( < )

(* Build a history from a compact op list. *)
type op =
  | W of int * int * int * int (* client, value, inv, resp; ts = value *)
  | Wfail of int * int * int (* client, value, inv — writer crashed *)
  | R of int * int * int * int (* client, value returned, inv, resp *)
  | Rabort of int * int * int

let build ops =
  let h = H.create () in
  List.iter
    (fun op ->
      match op with
      | W (client, value, inv, resp) ->
          let id = H.begin_write h ~client ~value ~time:inv in
          H.end_write h ~id ~time:resp ~ts:(Some value)
      | Wfail (client, value, inv) -> ignore (H.begin_write h ~client ~value ~time:inv)
      | R (client, value, inv, resp) ->
          let id = H.begin_read h ~client ~time:inv in
          H.end_read h ~id ~time:resp ~outcome:(H.Value value)
      | Rabort (client, inv, resp) ->
          let id = H.begin_read h ~client ~time:inv in
          H.end_read h ~id ~time:resp ~outcome:H.Abort)
    ops;
  h

(* --- history bookkeeping ------------------------------------------- *)

let test_history_counts () =
  let h = build [ W (0, 1, 0, 5); R (1, 1, 6, 9); Rabort (1, 10, 12); Wfail (0, 2, 13) ] in
  Alcotest.(check int) "size" 4 (H.size h);
  Alcotest.(check int) "writes" 2 (List.length (H.writes h));
  Alcotest.(check int) "completed reads" 1 (H.completed_reads h);
  Alcotest.(check int) "aborted reads" 1 (H.aborted_reads h)

let test_history_incomplete_ops () =
  let h = H.create () in
  let _ = H.begin_read h ~client:0 ~time:3 in
  match H.ops h with
  | [ H.Read r ] ->
      Alcotest.(check bool) "no response" true (r.resp = None);
      Alcotest.(check bool) "incomplete outcome" true (r.outcome = H.Incomplete)
  | _ -> Alcotest.fail "expected one read"

(* --- regularity ----------------------------------------------------- *)

let check_reg ?(after = 0) ops = Reg.check ~after ~ts_prec:prec (build ops)

let test_reg_sequential_ok () =
  let r = check_reg [ W (0, 1, 0, 5); R (1, 1, 6, 9); W (0, 2, 10, 15); R (1, 2, 16, 20) ] in
  Alcotest.(check bool) "clean" true (r.Reg.violations = []);
  Alcotest.(check int) "checked" 2 r.checked_reads

let test_reg_concurrent_write_ok () =
  (* Read overlaps the write of 2: may return 1 or 2. *)
  let old_ok = check_reg [ W (0, 1, 0, 5); W (0, 2, 10, 20); R (1, 1, 12, 18) ] in
  let new_ok = check_reg [ W (0, 1, 0, 5); W (0, 2, 10, 20); R (1, 2, 12, 18) ] in
  Alcotest.(check bool) "concurrent old ok" true (old_ok.Reg.violations = []);
  Alcotest.(check bool) "concurrent new ok" true (new_ok.Reg.violations = [])

let test_reg_stale_detected () =
  (* Write of 2 completed before the read began; returning 1 is stale. *)
  let r = check_reg [ W (0, 1, 0, 5); W (0, 2, 10, 15); R (1, 1, 20, 25) ] in
  Alcotest.(check int) "one violation" 1 (List.length r.violations);
  match r.violations with
  | [ { kind = `Stale; _ } ] -> ()
  | _ -> Alcotest.fail "expected a Stale violation"

let test_reg_future_detected () =
  let r = check_reg [ W (0, 1, 0, 5); R (1, 2, 6, 9); W (0, 2, 20, 25) ] in
  match r.violations with
  | [ { kind = `Future; _ } ] -> ()
  | _ -> Alcotest.fail "expected a Future violation"

let test_reg_unwritten_detected () =
  let r = check_reg [ W (0, 1, 0, 5); R (1, 99, 6, 9) ] in
  match r.violations with
  | [ { kind = `Unwritten; _ } ] -> ()
  | _ -> Alcotest.fail "expected an Unwritten violation"

let test_reg_inversion_detected () =
  (* Both writes complete, then read1 sees the new value and a later
     read2 steps back to the old one: inconsistent pair. *)
  let r =
    check_reg [ W (0, 1, 0, 5); W (0, 2, 6, 10); R (1, 2, 11, 14); R (1, 1, 15, 18) ]
  in
  Alcotest.(check bool) "violations found" true (r.Reg.violations <> []);
  Alcotest.(check bool) "inversion or stale reported" true
    (List.exists
       (fun (v : Reg.violation) -> match v.kind with `Inversion _ | `Stale -> true | _ -> false)
       r.violations)

let test_reg_classic_new_old_inversion_allowed () =
  (* The textbook regular-register behaviour: a write concurrent with
     two sequential reads; the first read sees the new value, the second
     the old one.  Regular (not atomic) => NOT a violation. *)
  let r =
    check_reg [ W (0, 1, 0, 5); W (0, 2, 10, 30); R (1, 2, 12, 16); R (1, 1, 18, 22) ]
  in
  Alcotest.(check bool) "allowed for regularity" true (r.Reg.violations = [])

let test_reg_failed_write_tolerated () =
  (* A crashed writer's value may or may not be returned. *)
  let seen = check_reg [ W (0, 1, 0, 5); Wfail (0, 2, 10); R (1, 2, 12, 20) ] in
  let unseen = check_reg [ W (0, 1, 0, 5); Wfail (0, 2, 10); R (1, 1, 12, 20) ] in
  Alcotest.(check bool) "failed write visible ok" true (seen.Reg.violations = []);
  Alcotest.(check bool) "failed write invisible ok" true (unseen.Reg.violations = [])

let test_reg_order_violation () =
  (* Isolated consecutive writes with reversed protocol timestamps. *)
  let h = H.create () in
  let id1 = H.begin_write h ~client:0 ~value:1 ~time:0 in
  H.end_write h ~id:id1 ~time:5 ~ts:(Some 10);
  let id2 = H.begin_write h ~client:0 ~value:2 ~time:10 in
  H.end_write h ~id:id2 ~time:15 ~ts:(Some 3);
  let r = Reg.check ~ts_prec:prec h in
  (match r.violations with
  | [ { kind = `Order; _ } ] -> ()
  | _ -> Alcotest.fail "expected an Order violation");
  (* ... but not when a third write overlaps the pair. *)
  let id3 = H.begin_write h ~client:1 ~value:3 ~time:2 in
  H.end_write h ~id:id3 ~time:12 ~ts:(Some 4);
  let r = Reg.check ~ts_prec:prec h in
  Alcotest.(check bool) "entangled pair exempt" true
    (not (List.exists (fun (v : Reg.violation) -> v.kind = `Order) r.violations))

let test_reg_after_scoping () =
  (* Pre-stabilization garbage is skipped when after is set. *)
  let ops = [ R (1, 77, 0, 4); W (0, 1, 5, 10); R (1, 1, 11, 15) ] in
  let strict = check_reg ops in
  let scoped = check_reg ~after:10 ops in
  Alcotest.(check bool) "strict flags the garbage read" true (strict.Reg.violations <> []);
  Alcotest.(check bool) "scoped run is clean" true (scoped.Reg.violations = []);
  Alcotest.(check int) "scoped skips it" 1 scoped.skipped_reads

let test_reg_abort_vacuous () =
  let r = check_reg [ W (0, 1, 0, 5); Rabort (1, 6, 9) ] in
  Alcotest.(check bool) "aborts never violate" true (r.Reg.violations = []);
  Alcotest.(check int) "aborts skipped" 1 r.skipped_reads

let test_reg_duplicate_value_rejected () =
  Alcotest.check_raises "duplicate write value"
    (Invalid_argument "Regularity.check: duplicate written value 1") (fun () ->
      ignore (check_reg [ W (0, 1, 0, 5); W (0, 1, 6, 9) ]))

(* --- safety ---------------------------------------------------------- *)

let check_safe ops = Safe.check ~ts_prec:prec (build ops)

let test_safe_quiet_read_must_be_fresh () =
  let good = check_safe [ W (0, 1, 0, 5); R (1, 1, 6, 9) ] in
  let bad = check_safe [ W (0, 1, 0, 5); W (0, 2, 6, 10); R (1, 1, 11, 15) ] in
  Alcotest.(check bool) "fresh ok" true (good.Safe.violations = []);
  Alcotest.(check bool) "stale flagged" false (bad.Safe.violations = [])

let test_safe_concurrent_read_unconstrained () =
  let r = check_safe [ W (0, 1, 0, 5); W (0, 2, 10, 20); R (1, 999, 12, 18) ] in
  Alcotest.(check bool) "anything goes under concurrency" true (r.Safe.violations = []);
  Alcotest.(check int) "counted as unconstrained" 1 r.unconstrained_reads

let test_safe_before_any_write_unconstrained () =
  let r = check_safe [ R (1, 77, 0, 3); W (0, 1, 10, 15) ] in
  Alcotest.(check bool) "pre-write read unconstrained" true (r.Safe.violations = [])

let test_safe_aborts_skipped () =
  let r = check_safe [ W (0, 1, 0, 5); Rabort (1, 6, 9) ] in
  Alcotest.(check bool) "aborts fine for safety" true (r.Safe.violations = []);
  Alcotest.(check int) "not counted as checked" 0 r.checked_reads

let test_safe_concurrent_writes_either_last () =
  (* Two mutually concurrent writes both completed before the read:
     the tie is resolved by the protocol order; either value passes if
     the protocol ordered it last. *)
  let newer_ok =
    check_safe [ W (0, 1, 0, 20); W (1, 2, 5, 15); R (2, 2, 25, 30) ]
  in
  Alcotest.(check bool) "protocol-last value accepted" true (newer_ok.Safe.violations = []);
  let older_flagged =
    check_safe [ W (0, 1, 0, 20); W (1, 2, 5, 15); R (2, 1, 25, 30) ]
  in
  (* value 1 has ts 1 < ts 2: provably superseded. *)
  Alcotest.(check bool) "protocol-earlier value flagged" false (older_flagged.Safe.violations = [])

(* --- atomicity ------------------------------------------------------- *)

let check_atom ops = Atom.check (build ops)

let test_atomic_sequential_ok () =
  let r = check_atom [ W (0, 1, 0, 5); R (1, 1, 6, 9); W (0, 2, 10, 15); R (1, 2, 16, 19) ] in
  Alcotest.(check bool) "linearizable" true r.linearizable

let test_atomic_inversion_rejected () =
  (* The classic new-old inversion IS a linearizability violation. *)
  let r = check_atom [ W (0, 1, 0, 5); W (0, 2, 10, 30); R (1, 2, 12, 16); R (1, 1, 18, 22) ] in
  Alcotest.(check bool) "not linearizable" false r.linearizable

let test_atomic_concurrent_either_ok () =
  let r1 = check_atom [ W (0, 1, 0, 5); W (0, 2, 10, 20); R (1, 1, 12, 14) ] in
  let r2 = check_atom [ W (0, 1, 0, 5); W (0, 2, 10, 20); R (1, 2, 12, 14) ] in
  Alcotest.(check bool) "old fine" true r1.linearizable;
  Alcotest.(check bool) "new fine" true r2.linearizable

let test_atomic_unwritten_rejected () =
  let r = check_atom [ W (0, 1, 0, 5); R (1, 9, 6, 8) ] in
  Alcotest.(check bool) "unwritten value" false r.linearizable

let suite =
  [
    Alcotest.test_case "history counts" `Quick test_history_counts;
    Alcotest.test_case "history incomplete ops" `Quick test_history_incomplete_ops;
    Alcotest.test_case "regularity: sequential" `Quick test_reg_sequential_ok;
    Alcotest.test_case "regularity: concurrent write" `Quick test_reg_concurrent_write_ok;
    Alcotest.test_case "regularity: stale" `Quick test_reg_stale_detected;
    Alcotest.test_case "regularity: future" `Quick test_reg_future_detected;
    Alcotest.test_case "regularity: unwritten" `Quick test_reg_unwritten_detected;
    Alcotest.test_case "regularity: read-pair inversion" `Quick test_reg_inversion_detected;
    Alcotest.test_case "regularity: classic inversion allowed" `Quick
      test_reg_classic_new_old_inversion_allowed;
    Alcotest.test_case "regularity: failed writes" `Quick test_reg_failed_write_tolerated;
    Alcotest.test_case "regularity: order violation" `Quick test_reg_order_violation;
    Alcotest.test_case "regularity: after scoping" `Quick test_reg_after_scoping;
    Alcotest.test_case "regularity: aborts vacuous" `Quick test_reg_abort_vacuous;
    Alcotest.test_case "regularity: duplicate values rejected" `Quick test_reg_duplicate_value_rejected;
    Alcotest.test_case "safety: quiet reads fresh" `Quick test_safe_quiet_read_must_be_fresh;
    Alcotest.test_case "safety: concurrency unconstrained" `Quick test_safe_concurrent_read_unconstrained;
    Alcotest.test_case "safety: pre-write unconstrained" `Quick test_safe_before_any_write_unconstrained;
    Alcotest.test_case "safety: aborts skipped" `Quick test_safe_aborts_skipped;
    Alcotest.test_case "safety: concurrent writes tie-break" `Quick test_safe_concurrent_writes_either_last;
    Alcotest.test_case "atomicity: sequential" `Quick test_atomic_sequential_ok;
    Alcotest.test_case "atomicity: inversion rejected" `Quick test_atomic_inversion_rejected;
    Alcotest.test_case "atomicity: concurrent either" `Quick test_atomic_concurrent_either_ok;
    Alcotest.test_case "atomicity: unwritten rejected" `Quick test_atomic_unwritten_rejected;
  ]
