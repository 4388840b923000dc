(* Tests for the k-stabilizing bounded labeling system — Definition 2:
   for any subset of at most k labels, next dominates every one. *)

open Sbft_labels

let sys6 = Sbls.system ~k:6

let rng () = Sbft_sim.Rng.create 77L

let test_system_params () =
  Alcotest.(check int) "universe k^2+1" 37 sys6.m;
  Alcotest.(check int) "k recorded" 6 sys6.k;
  Alcotest.check_raises "k < 2 rejected" (Invalid_argument "Sbls.system: k must be >= 2") (fun () ->
      ignore (Sbls.system ~k:1))

let test_initial_valid () = Alcotest.(check bool) "initial valid" true (Sbls.valid sys6 (Sbls.initial sys6))

let test_prec_irreflexive () =
  let r = rng () in
  for _ = 1 to 1000 do
    let l = Sbls.random sys6 r in
    if Sbls.prec l l then Alcotest.fail "prec must be irreflexive"
  done

let test_prec_antisymmetric () =
  let r = rng () in
  for _ = 1 to 1000 do
    let a = Sbls.random sys6 r and b = Sbls.random sys6 r in
    if Sbls.prec a b && Sbls.prec b a then Alcotest.fail "prec must be antisymmetric"
  done

let test_prec_not_total () =
  (* Incomparable pairs must exist — that is the price of boundedness. *)
  let r = rng () in
  let found = ref false in
  for _ = 1 to 1000 do
    let a = Sbls.random sys6 r and b = Sbls.random sys6 r in
    if (not (Sbls.equal a b)) && (not (Sbls.prec a b)) && not (Sbls.prec b a) then found := true
  done;
  Alcotest.(check bool) "incomparable pairs exist" true !found

let test_next_dominates_singleton () =
  let l0 = Sbls.initial sys6 in
  let l1 = Sbls.next sys6 [ l0 ] in
  Alcotest.(check bool) "l0 < next [l0]" true (Sbls.prec l0 l1);
  Alcotest.(check bool) "next well-formed" true (Sbls.valid sys6 l1)

let test_next_dominates_chain () =
  (* A long chain of consecutive next() calls: each label must dominate
     its predecessor even as labels wrap around the finite universe. *)
  let l = ref (Sbls.initial sys6) in
  for _ = 1 to 500 do
    let n = Sbls.next sys6 [ !l ] in
    if not (Sbls.prec !l n) then Alcotest.fail "chain step must dominate";
    l := n
  done

let test_next_empty_input () =
  let n = Sbls.next sys6 [] in
  Alcotest.(check bool) "next of nothing is well-formed" true (Sbls.valid sys6 n)

let test_next_of_garbage_total () =
  (* next must be a total function even on ill-formed labels. *)
  let r = rng () in
  for _ = 1 to 500 do
    let inputs = List.init (1 + Sbft_sim.Rng.int r 6) (fun _ -> Sbls.random_garbage sys6 r) in
    ignore (Sbls.next sys6 inputs)
  done

let test_valid_detects_garbage () =
  let bad = { Sbls.sting = -3; anti = [| 1; 2 |] } in
  Alcotest.(check bool) "garbage invalid" false (Sbls.valid sys6 bad)

let test_canonicalize () =
  let r = rng () in
  for _ = 1 to 500 do
    let g = Sbls.random_garbage sys6 r in
    let c = Sbls.canonicalize sys6 g in
    if not (Sbls.valid sys6 c) then Alcotest.fail "canonicalize must produce a valid label"
  done;
  let v = Sbls.random sys6 (rng ()) in
  Alcotest.(check bool) "identity on valid labels" true (Sbls.equal v (Sbls.canonicalize sys6 v))

let test_size_bits () =
  Alcotest.(check int) "k=6: 7 values of 6 bits" 42 (Sbls.size_bits sys6);
  let s21 = Sbls.system ~k:21 in
  Alcotest.(check bool) "bits grow with k but stay modest" true (Sbls.size_bits s21 < 256)

let test_compare_consistent_with_equal () =
  let r = rng () in
  for _ = 1 to 200 do
    let a = Sbls.random sys6 r and b = Sbls.random sys6 r in
    Alcotest.(check bool) "compare 0 iff equal" (Sbls.equal a b) (Sbls.compare a b = 0)
  done

let test_to_string () =
  Alcotest.(check string) "printable" "(0|1,2,3,4,5,6)" (Sbls.to_string (Sbls.initial sys6))

(* The heart of Definition 2, property-tested: any <= k valid labels,
   including adversarially random ones, are all dominated by next. *)
let qcheck_domination =
  QCheck.Test.make ~name:"sbls: next dominates any <= k labels (Definition 2)" ~count:2000
    QCheck.(pair (int_bound 100_000) (int_range 1 6))
    (fun (seed, count) ->
      let r = Sbft_sim.Rng.create (Int64.of_int seed) in
      let inputs = List.init count (fun _ -> Sbls.random sys6 r) in
      let nxt = Sbls.next sys6 inputs in
      Sbls.valid sys6 nxt && List.for_all (fun l -> Sbls.prec l nxt) inputs)

let qcheck_domination_large_k =
  QCheck.Test.make ~name:"sbls: domination at k=21" ~count:300
    QCheck.(pair (int_bound 100_000) (int_range 1 21))
    (fun (seed, count) ->
      let sys = Sbls.system ~k:21 in
      let r = Sbft_sim.Rng.create (Int64.of_int seed) in
      let inputs = List.init count (fun _ -> Sbls.random sys r) in
      let nxt = Sbls.next sys inputs in
      List.for_all (fun l -> Sbls.prec l nxt) inputs)

let qcheck_canonicalized_garbage_domination =
  QCheck.Test.make ~name:"sbls: domination over canonicalized garbage" ~count:1000
    QCheck.(pair (int_bound 100_000) (int_range 1 6))
    (fun (seed, count) ->
      let r = Sbft_sim.Rng.create (Int64.of_int seed) in
      let inputs =
        List.init count (fun _ -> Sbls.canonicalize sys6 (Sbls.random_garbage sys6 r))
      in
      let nxt = Sbls.next sys6 inputs in
      List.for_all (fun l -> Sbls.prec l nxt) inputs)

(* [prec] against the definition written over lists: s1 ∈ A2 ∧ s2 ∉ A1,
   on valid labels and on raw garbage (out-of-range stings, unsorted or
   over-long antisting arrays) alike. *)
let qcheck_prec_reference =
  QCheck.Test.make ~name:"sbls: prec equals a List.mem reference" ~count:2000
    QCheck.(triple (int_bound 100_000) bool bool)
    (fun (seed, garbage1, garbage2) ->
      let r = Sbft_sim.Rng.create (Int64.of_int seed) in
      let draw garbage = if garbage then Sbls.random_garbage sys6 r else Sbls.random sys6 r in
      let l1 = draw garbage1 in
      let l2 = draw garbage2 in
      let mem x a = List.mem x (Array.to_list a) in
      let reference a b = mem a.Sbls.sting b.Sbls.anti && not (mem b.Sbls.sting a.Sbls.anti) in
      (* the second pair makes l1 ≺ l2-shaped cases common, not just
         the ~1 in 6 that independent draws give *)
      let l2' = { l2 with anti = Array.append [| l1.sting |] l2.anti } in
      Sbls.prec l1 l2 = reference l1 l2
      && Sbls.prec l2 l1 = reference l2 l1
      && Sbls.prec l1 l2' = reference l1 l2'
      && Sbls.prec l2' l1 = reference l2' l1)

let suite =
  [
    Alcotest.test_case "system parameters" `Quick test_system_params;
    Alcotest.test_case "initial is valid" `Quick test_initial_valid;
    Alcotest.test_case "prec irreflexive" `Quick test_prec_irreflexive;
    Alcotest.test_case "prec antisymmetric" `Quick test_prec_antisymmetric;
    Alcotest.test_case "prec not total" `Quick test_prec_not_total;
    Alcotest.test_case "next dominates singleton" `Quick test_next_dominates_singleton;
    Alcotest.test_case "next chain of 500" `Quick test_next_dominates_chain;
    Alcotest.test_case "next of empty input" `Quick test_next_empty_input;
    Alcotest.test_case "next total on garbage" `Quick test_next_of_garbage_total;
    Alcotest.test_case "valid detects garbage" `Quick test_valid_detects_garbage;
    Alcotest.test_case "canonicalize" `Quick test_canonicalize;
    Alcotest.test_case "label size in bits" `Quick test_size_bits;
    Alcotest.test_case "compare vs equal" `Quick test_compare_consistent_with_equal;
    Alcotest.test_case "to_string" `Quick test_to_string;
    QCheck_alcotest.to_alcotest qcheck_domination;
    QCheck_alcotest.to_alcotest qcheck_domination_large_k;
    QCheck_alcotest.to_alcotest qcheck_canonicalized_garbage_domination;
    QCheck_alcotest.to_alcotest qcheck_prec_reference;
  ]
