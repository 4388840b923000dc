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
  Alcotest.(check string) "printable" "(0|1,2,3,4,5,6)" (Format.asprintf "%a" Sbls.pp (Sbls.initial sys6))

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

(* [Sbls.next] as it stood when it was built from hashtables and lists:
   the reference the allocation-free version must equal on every input,
   corrupted and over-long ones included. *)
module Ref_next = struct
  let dedup xs =
    let seen = Hashtbl.create 16 in
    List.filter
      (fun x ->
        if Hashtbl.mem seen x then false
        else begin
          Hashtbl.add seen x ();
          true
        end)
      xs

  let next (sys : Sbls.system) (ls : Sbls.t list) =
    let excluded = Hashtbl.create 64 in
    List.iter (fun (l : Sbls.t) -> Array.iter (fun x -> Hashtbl.replace excluded x ()) l.anti) ls;
    let sting =
      let rec find c = if c >= sys.m then 0 else if Hashtbl.mem excluded c then find (c + 1) else c in
      find 0
    in
    let stings = dedup (List.map (fun (l : Sbls.t) -> l.sting) ls) in
    let stings = List.filteri (fun i _ -> i < sys.k) stings in
    let present = Hashtbl.create 16 in
    List.iter (fun s -> Hashtbl.replace present s ()) stings;
    let pad = ref [] in
    let needed = ref (sys.k - List.length stings) in
    let c = ref 0 in
    while !needed > 0 && !c < sys.m do
      if (not (Hashtbl.mem present !c)) && !c <> sting then begin
        pad := !c :: !pad;
        Hashtbl.replace present !c ();
        decr needed
      end;
      incr c
    done;
    let anti = Array.of_list (stings @ List.rev !pad) in
    Array.sort Int.compare anti;
    { Sbls.sting; anti }
end

let same_label (a : Sbls.t) (b : Sbls.t) = a.sting = b.sting && a.anti = b.anti

let ref_ks = [| 2; 3; 4; 5; 6; 7; 8; 11; 21 |]

(* A label system and an input list drawn from one seed, so every
   counterexample is a replayable integer: valid labels, raw garbage,
   a mix, or a chain of [next] outputs (a hot key's timestamps), with
   up to [max_len k] labels. *)
let draw_inputs ~max_len seed =
  let r = Sbft_sim.Rng.create (Int64.of_int seed) in
  let k = Sbft_sim.Rng.pick r ref_ks in
  let sys = Sbls.system ~k in
  let count = Sbft_sim.Rng.int r (max_len k + 1) in
  let inputs =
    match Sbft_sim.Rng.int r 4 with
    | 0 -> List.init count (fun _ -> Sbls.random sys r)
    | 1 -> List.init count (fun _ -> Sbls.random_garbage sys r)
    | 2 ->
        List.init count (fun _ ->
            if Sbft_sim.Rng.bool r then Sbls.random sys r else Sbls.random_garbage sys r)
    | _ ->
        let rec chain l i acc = if i = 0 then acc else chain (Ref_next.next sys [ l ]) (i - 1) (l :: acc) in
        chain (Sbls.random sys r) count []
  in
  (sys, r, inputs)

let qcheck_next_matches_reference =
  QCheck.Test.make ~name:"sbls: next equals the reference on valid, garbage, over-long and chained input"
    ~count:3000 (QCheck.int_bound 1_000_000_000)
    (fun seed ->
      let sys, _, inputs = draw_inputs ~max_len:(fun k -> (2 * k) + 1) seed in
      same_label (Sbls.next sys inputs) (Ref_next.next sys inputs))

(* The fallback sting: when the input antistings cover the whole
   universe no candidate is free, and the sting is 0.  Random garbage
   practically never gets there, so the inputs are built by hand: the
   universe is dealt round-robin over [count] labels. *)
let test_next_covered_universe () =
  List.iter
    (fun k ->
      let sys = Sbls.system ~k in
      List.iter
        (fun count ->
          let inputs =
            List.init count (fun i ->
                {
                  Sbls.sting = sys.m + i;
                  anti = Array.of_list (List.filter (fun x -> x mod count = i) (List.init sys.m Fun.id));
                })
          in
          let nxt = Sbls.next sys inputs in
          Alcotest.(check int) (Printf.sprintf "k=%d, %d sets: fallback sting" k count) 0 nxt.sting;
          Alcotest.(check bool)
            (Printf.sprintf "k=%d, %d sets: equals the reference" k count)
            true
            (same_label nxt (Ref_next.next sys inputs)))
        [ 1; 2; k; k + 3 ])
    [ 2; 4; 6; 21 ]

let qcheck_next_order_free =
  QCheck.Test.make ~name:"sbls: next ignores the order of at most k inputs" ~count:2000
    (QCheck.int_bound 1_000_000_000)
    (fun seed ->
      let sys, r, inputs = draw_inputs ~max_len:(fun k -> k) seed in
      let shuffled = Array.of_list inputs in
      Sbft_sim.Rng.shuffle r shuffled;
      same_label (Sbls.next sys inputs) (Sbls.next sys (Array.to_list shuffled)))

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
    QCheck_alcotest.to_alcotest qcheck_next_matches_reference;
    Alcotest.test_case "next falls back to sting 0 on a covered universe" `Quick
      test_next_covered_universe;
    QCheck_alcotest.to_alcotest qcheck_next_order_free;
  ]
