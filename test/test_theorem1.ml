(* Tests for the executable Theorem 1 lower bound. *)

module T1 = Sbft_byz.Theorem1

let test_identical_multisets () =
  List.iter
    (fun d ->
      let o = T1.run_decision d in
      Alcotest.(check bool) (o.rule ^ ": observations identical") true o.same_multiset)
    T1.decisions

let test_every_rule_fails () =
  List.iter
    (fun d ->
      let o = T1.run_decision d in
      Alcotest.(check bool) (o.rule ^ ": at least one read wrong") true (not (o.r1_ok && o.r2_ok)))
    T1.decisions

let test_rules_are_deterministic () =
  List.iter
    (fun d ->
      let a = T1.run_decision d and b = T1.run_decision d in
      Alcotest.(check int) "stable r1" a.r1_returns b.r1_returns;
      Alcotest.(check int) "stable r2" a.r2_returns b.r2_returns)
    T1.decisions

let test_protocol_violated_at_5f () =
  List.iter
    (fun seed ->
      let o = T1.run_protocol ~n:5 ~f:1 ~seed in
      Alcotest.(check bool)
        (Printf.sprintf "n=5f breaks (seed %Ld): %s" seed o.read_result)
        true (o.violation || o.aborted))
    [ 1L; 5L; 11L; 23L ]

let test_protocol_safe_at_5f1 () =
  List.iter
    (fun seed ->
      let o = T1.run_protocol ~n:6 ~f:1 ~seed in
      Alcotest.(check bool) (Printf.sprintf "n=5f+1 safe (seed %Ld)" seed) false o.violation)
    [ 1L; 5L; 11L; 23L ]

let test_protocol_safe_at_higher_f () =
  (* The generalized bound: f=2 needs n=11. *)
  let below = T1.run_protocol ~n:10 ~f:2 ~seed:5L in
  let at = T1.run_protocol ~n:11 ~f:2 ~seed:5L in
  Alcotest.(check bool) "n=10=5f breaks" true (below.violation || below.aborted);
  Alcotest.(check bool) "n=11=5f+1 holds" false at.violation

let suite =
  [
    Alcotest.test_case "observations identical" `Quick test_identical_multisets;
    Alcotest.test_case "every decision rule fails" `Quick test_every_rule_fails;
    Alcotest.test_case "rules deterministic" `Quick test_rules_are_deterministic;
    Alcotest.test_case "protocol violated at n=5f" `Quick test_protocol_violated_at_5f;
    Alcotest.test_case "protocol safe at n=5f+1" `Quick test_protocol_safe_at_5f1;
    Alcotest.test_case "bound generalizes to f=2" `Quick test_protocol_safe_at_higher_f;
  ]
