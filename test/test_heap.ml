(* Tests for the event heap: ordering, tie-breaking, growth.  Every test
   reads the heap the way the engine does: [min_time] (and [min_seq]),
   then [take]. *)

open Sbft_sim

(* Every [(time, seq, payload)] left in [h], in the order [take] yields
   them. *)
let drain h =
  let rec go acc =
    let time = Heap.min_time h in
    if time = Heap.no_event then List.rev acc
    else
      let seq = Heap.min_seq h in
      go ((time, seq, Heap.take h) :: acc)
  in
  go []

let payloads h = List.map (fun (_, _, p) -> p) (drain h)

let test_empty () =
  let h = Heap.create () in
  Alcotest.(check int) "size 0" 0 (Heap.size h);
  Alcotest.(check int) "min_time is no_event" Heap.no_event (Heap.min_time h);
  Alcotest.check_raises "take on empty" (Invalid_argument "Heap.take: empty") (fun () ->
      ignore (Heap.take h : unit))

let test_ordering () =
  let h = Heap.create () in
  Heap.push h ~time:5 ~seq:0 "e";
  Heap.push h ~time:1 ~seq:1 "a";
  Heap.push h ~time:3 ~seq:2 "c";
  Heap.push h ~time:2 ~seq:3 "b";
  Heap.push h ~time:4 ~seq:4 "d";
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c"; "d"; "e" ] (payloads h)

let test_tie_break_by_seq () =
  let h = Heap.create () in
  Heap.push h ~time:7 ~seq:2 "second";
  Heap.push h ~time:7 ~seq:1 "first";
  Heap.push h ~time:7 ~seq:3 "third";
  Alcotest.(check (list (triple int int string)))
    "min_seq breaks the time tie"
    [ (7, 1, "first"); (7, 2, "second"); (7, 3, "third") ]
    (drain h)

let test_peek_does_not_pop () =
  let h = Heap.create () in
  Heap.push h ~time:9 ~seq:0 ();
  Alcotest.(check int) "min_time" 9 (Heap.min_time h);
  Alcotest.(check int) "min_seq" 0 (Heap.min_seq h);
  Alcotest.(check int) "still there" 1 (Heap.size h)

let test_growth () =
  let h = Heap.create () in
  for i = 0 to 9999 do
    Heap.push h ~time:(9999 - i) ~seq:i i
  done;
  Alcotest.(check int) "all inserted" 10_000 (Heap.size h);
  let times = List.map (fun (t, _, _) -> t) (drain h) in
  Alcotest.(check int) "all drained" 10_000 (List.length times);
  Alcotest.(check bool) "monotone drain of 10k" true (times = List.sort Int.compare times);
  Alcotest.(check int) "empty after" Heap.no_event (Heap.min_time h)

(* Taken payloads must not stay reachable from the heap's backing
   store.  Track a payload through a weak pointer: after taking it and
   dropping our own reference, a major GC must be able to collect it —
   which can only happen if [take] released its slot. *)
let test_take_releases_payload () =
  let h = Heap.create () in
  let weak = Weak.create 1 in
  let () =
    (* Allocate the payload in a sub-scope so no local keeps it alive. *)
    let payload = ref 42 in
    Weak.set weak 0 (Some payload);
    Heap.push h ~time:1 ~seq:0 payload;
    Heap.push h ~time:2 ~seq:1 (ref 0);
    ignore (Heap.take h : int ref)
  in
  Gc.full_major ();
  Alcotest.(check bool) "taken payload was collected" false (Weak.check weak 0);
  Alcotest.(check int) "remaining entry still queued" 1 (Heap.size h)

let qcheck_sorted_drain =
  QCheck.Test.make ~name:"heap: drain is sorted by (time, seq)" ~count:200
    QCheck.(list (pair (int_bound 100) (int_bound 100)))
    (fun pairs ->
      let h = Heap.create () in
      List.iteri (fun seq (t, payload) -> Heap.push h ~time:t ~seq payload) pairs;
      let keys = List.map (fun (t, s, _) -> (t, s)) (drain h) in
      let sorted = List.sort compare keys in
      keys = sorted)

let suite =
  [
    Alcotest.test_case "empty heap" `Quick test_empty;
    Alcotest.test_case "ordering" `Quick test_ordering;
    Alcotest.test_case "tie-break by seq" `Quick test_tie_break_by_seq;
    Alcotest.test_case "peek does not pop" `Quick test_peek_does_not_pop;
    Alcotest.test_case "growth to 10k" `Quick test_growth;
    Alcotest.test_case "pop releases payload slot" `Quick test_take_releases_payload;
    QCheck_alcotest.to_alcotest qcheck_sorted_drain;
  ]
