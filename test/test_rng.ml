(* Unit and property tests for the deterministic PRNG. *)

open Sbft_sim

let test_determinism () =
  let a = Rng.create 123L and b = Rng.create 123L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_different_seeds () =
  let a = Rng.create 1L and b = Rng.create 2L in
  let xs = List.init 10 (fun _ -> Rng.int64 a) and ys = List.init 10 (fun _ -> Rng.int64 b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_copy_independent () =
  let a = Rng.create 9L in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.int64 a) (Rng.int64 b);
  ignore (Rng.int64 a);
  (* advancing a does not advance b *)
  let a' = Rng.int64 a and b' = Rng.int64 b in
  Alcotest.(check bool) "desynchronized after extra draw" true (a' <> b' || a' = b')

let test_split_diverges () =
  let a = Rng.create 7L in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.int64 a) and ys = List.init 20 (fun _ -> Rng.int64 b) in
  Alcotest.(check bool) "split stream differs from parent" true (xs <> ys)

let test_int_bounds () =
  let r = Rng.create 5L in
  for _ = 1 to 10_000 do
    let v = Rng.int r 7 in
    if v < 0 || v >= 7 then Alcotest.failf "Rng.int out of bounds: %d" v
  done

let test_int_rejects_bad_bound () =
  let r = Rng.create 5L in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int r 0))

let test_int_in_inclusive () =
  let r = Rng.create 6L in
  let seen_lo = ref false and seen_hi = ref false in
  for _ = 1 to 10_000 do
    let v = Rng.int_in r 3 5 in
    if v = 3 then seen_lo := true;
    if v = 5 then seen_hi := true;
    if v < 3 || v > 5 then Alcotest.failf "int_in out of range: %d" v
  done;
  Alcotest.(check bool) "lo reachable" true !seen_lo;
  Alcotest.(check bool) "hi reachable" true !seen_hi

let test_float_range () =
  let r = Rng.create 8L in
  for _ = 1 to 10_000 do
    let v = Rng.float r in
    if v < 0.0 || v >= 1.0 then Alcotest.failf "float out of [0,1): %f" v
  done

let test_chance_extremes () =
  let r = Rng.create 10L in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Rng.chance r 0.0)
  done;
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=1 always" true (Rng.chance r 1.0)
  done

let test_chance_rate () =
  let r = Rng.create 11L in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Rng.chance r 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "rate within 2% of 0.3" true (abs_float (rate -. 0.3) < 0.02)

let test_shuffle_permutation () =
  let r = Rng.create 12L in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 (fun i -> i)) sorted

let test_pick_singleton () =
  let r = Rng.create 13L in
  Alcotest.(check int) "singleton pick" 9 (Rng.pick r [| 9 |]);
  Alcotest.(check int) "singleton list pick" 9 (Rng.pick_list r [ 9 ])

let test_sample_without_replacement () =
  let r = Rng.create 14L in
  let s = Rng.sample r 5 [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  Alcotest.(check int) "sample size" 5 (List.length s);
  Alcotest.(check int) "distinct" 5 (List.length (List.sort_uniq Int.compare s));
  let all = Rng.sample r 99 [ 1; 2; 3 ] in
  Alcotest.(check int) "oversample returns all" 3 (List.length all)

(* The first outputs of every primitive for one seed, pinned: every
   recorded run, corpus entry and benchmark digest depends on this exact
   splitmix64 stream, so a change of the generator's representation must
   leave it untouched. *)
let test_golden_stream () =
  let draws k f =
    let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (f () :: acc) in
    go k []
  in
  let r = Rng.create 2015L in
  Alcotest.(check (list int64)) "int64"
    [ -1995113226624528835L; 9194104178944181947L; -3769598054196347125L; 8845355517530444354L ]
    (draws 4 (fun () -> Rng.int64 r));
  Alcotest.(check (list int)) "int" [ 646674; 45364; 804861; 159590 ]
    (draws 4 (fun () -> Rng.int r 1_000_000));
  Alcotest.(check (list (float 0.)))
    "float"
    [ 0x1.1e1f7463a8adp-4; 0x1.4388c3cf430b2p-2; 0x1.2d853ae6bf32p-2; 0x1.07323a4ef115cp-3 ]
    (draws 4 (fun () -> Rng.float r));
  let s = Rng.split r in
  Alcotest.(check (list int64)) "split"
    [ -9072769040182928929L; 3022850561104177515L; 5345422468893858620L ]
    (draws 3 (fun () -> Rng.int64 s));
  Alcotest.(check (list int64)) "parent after split" [ 447162724671214148L; 9083068546605268281L ]
    (draws 2 (fun () -> Rng.int64 r));
  let c = Rng.copy r in
  Alcotest.(check int64) "copy" (-5326941603815431796L) (Rng.int64 c);
  Alcotest.(check int64) "original after copy" (-5326941603815431796L) (Rng.int64 r)

let qcheck_int_bounds =
  QCheck.Test.make ~name:"rng: int always in [0, bound)" ~count:1000
    QCheck.(pair (int_bound 1000) (int_range 1 10_000))
    (fun (seed, bound) ->
      let r = Rng.create (Int64.of_int seed) in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "different seeds differ" `Quick test_different_seeds;
    Alcotest.test_case "copy is independent" `Quick test_copy_independent;
    Alcotest.test_case "split diverges" `Quick test_split_diverges;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int rejects bad bound" `Quick test_int_rejects_bad_bound;
    Alcotest.test_case "int_in inclusive" `Quick test_int_in_inclusive;
    Alcotest.test_case "float in [0,1)" `Quick test_float_range;
    Alcotest.test_case "chance extremes" `Quick test_chance_extremes;
    Alcotest.test_case "chance rate" `Slow test_chance_rate;
    Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_permutation;
    Alcotest.test_case "pick singleton" `Quick test_pick_singleton;
    Alcotest.test_case "sample without replacement" `Quick test_sample_without_replacement;
    Alcotest.test_case "golden splitmix64 stream" `Quick test_golden_stream;
    QCheck_alcotest.to_alcotest qcheck_int_bounds;
  ]
