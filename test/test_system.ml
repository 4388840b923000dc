(* End-to-end tests for the full register deployment: clients, servers,
   network, history recording. *)

open Sbft_core
module H = Sbft_spec.History

let outcome = Alcotest.testable (fun fmt (o : H.read_outcome) ->
    match o with
    | H.Value v -> Format.fprintf fmt "Value %d" v
    | H.Abort -> Format.fprintf fmt "Abort"
    | H.Incomplete -> Format.fprintf fmt "Incomplete")
    ( = )

let make ?(seed = 1L) ?(n = 6) ?(f = 1) ?(clients = 3) () =
  System.create ~seed (Config.make ~n ~f ~clients ())

let test_write_then_read () =
  let sys = make () in
  let result = ref H.Incomplete in
  System.write sys ~client:6 ~value:11
    ~k:(fun () -> System.read sys ~client:7 ~k:(fun o -> result := o) ())
    ();
  System.quiesce sys;
  Alcotest.check outcome "reads what was written" (H.Value 11) !result

let test_clean_start_read_returns_default () =
  (* Clean (uncorrupted) servers all hold value 0: a read before any
     write agrees on it. *)
  let sys = make () in
  let result = ref H.Incomplete in
  System.read sys ~client:6 ~k:(fun o -> result := o) ();
  System.quiesce sys;
  Alcotest.check outcome "initial value" (H.Value 0) !result

let test_sequential_chain () =
  let sys = make () in
  let reads = ref [] in
  let rec step i =
    if i < 10 then
      System.write sys ~client:6 ~value:(100 + i)
        ~k:(fun () ->
          System.read sys ~client:7
            ~k:(fun o ->
              reads := o :: !reads;
              step (i + 1))
            ())
        ()
  in
  step 0;
  System.quiesce sys;
  Alcotest.(check int) "ten reads" 10 (List.length !reads);
  List.iteri
    (fun i o -> Alcotest.check outcome (Printf.sprintf "read %d" i) (H.Value (109 - i)) o)
    !reads

let test_busy_client_rejected () =
  let sys = make () in
  System.write sys ~client:6 ~value:1 ();
  Alcotest.check_raises "second write while busy"
    (Invalid_argument "Client.write: write already in progress") (fun () ->
      System.write sys ~client:6 ~value:2 ());
  System.quiesce sys

let test_history_records_everything () =
  let sys = make () in
  System.write sys ~client:6 ~value:5 ~k:(fun () -> System.read sys ~client:7 ()) ();
  System.quiesce sys;
  let h = System.history sys in
  Alcotest.(check int) "two ops" 2 (H.size h);
  match H.ops h with
  | [ H.Write w; H.Read r ] ->
      Alcotest.(check bool) "write has response" true (w.resp <> None);
      Alcotest.(check bool) "write has timestamp" true (w.ts <> None);
      Alcotest.(check bool) "read completed" true (r.outcome = H.Value 5);
      Alcotest.(check bool) "times ordered" true (w.inv <= Option.get w.resp)
  | _ -> Alcotest.fail "unexpected history shape"

let test_determinism () =
  let run () =
    let sys = make ~seed:77L () in
    let reg = Sbft_harness.Register.core sys in
    let _ = Sbft_harness.Workload.run ~spec:{ Sbft_harness.Workload.default with ops_per_client = 10 } reg in
    Format.asprintf "%a" (H.pp Sbft_labels.Mw_ts.pp) (System.history sys)
  in
  Alcotest.(check string) "same seed, same history" (run ()) (run ())

let test_seed_changes_schedule () =
  let run seed =
    let sys = make ~seed () in
    let reg = Sbft_harness.Register.core sys in
    let _ = Sbft_harness.Workload.run ~spec:{ Sbft_harness.Workload.default with ops_per_client = 10 } reg in
    Format.asprintf "%a" (H.pp Sbft_labels.Mw_ts.pp) (System.history sys)
  in
  Alcotest.(check bool) "different seeds diverge" true (run 1L <> run 2L)

let test_abandon () =
  let sys = make () in
  let fired = ref false in
  System.write sys ~client:6 ~value:1 ~k:(fun () -> fired := true) ();
  Client.abandon (System.client sys 6);
  System.quiesce sys;
  Alcotest.(check bool) "continuation dropped" false !fired;
  Alcotest.(check bool) "client idle again" false (Client.busy (System.client sys 6));
  (* The abandoned client can operate again. *)
  let ok = ref false in
  System.write sys ~client:6 ~value:2 ~k:(fun () -> ok := true) ();
  System.quiesce sys;
  Alcotest.(check bool) "recovers" true !ok

let test_crash_client_via_network () =
  let sys = make () in
  let fired = ref false in
  Sbft_channel.Network.crash (System.network sys) 6;
  System.write sys ~client:6 ~value:1 ~k:(fun () -> fired := true) ();
  System.quiesce sys;
  Alcotest.(check bool) "crashed writer never completes" false !fired;
  (* Its failed write appears in the history without a response. *)
  match H.ops (System.history sys) with
  | [ H.Write w ] -> Alcotest.(check bool) "failed write recorded" true (w.resp = None)
  | _ -> Alcotest.fail "expected one failed write"

let test_count_holding_after_write () =
  let sys = make () in
  System.write sys ~client:6 ~value:123
    ~k:(fun () ->
      match Client.last_write_ts (System.client sys 6) with
      | Some ts ->
          let held = System.count_holding sys ~value:123 ~ts in
          Alcotest.(check bool) "Lemma 2 bound" true (held >= 4)
      | None -> Alcotest.fail "write_ts missing")
    ();
  System.quiesce sys

let test_concurrent_writers_complete () =
  (* The write-retry path: many clients writing simultaneously must all
     terminate (the starvation scenario behind the retry deviation). *)
  let sys = make ~clients:5 () in
  let done_count = ref 0 in
  for c = 6 to 10 do
    System.write sys ~client:c ~value:(500 + c) ~k:(fun () -> incr done_count) ()
  done;
  System.quiesce sys;
  Alcotest.(check int) "all concurrent writes complete" 5 !done_count

let test_mwmr_consecutive_writes_ordered () =
  (* Isolated consecutive writes by different writers must be ordered by
     the (id, label) timestamps (Lemma 8). *)
  let sys = make () in
  System.write sys ~client:6 ~value:1
    ~k:(fun () -> System.write sys ~client:7 ~value:2 ())
    ();
  System.quiesce sys;
  match H.ops (System.history sys) with
  | [ H.Write w1; H.Write w2 ] -> (
      match w1.ts, w2.ts with
      | Some t1, Some t2 ->
          Alcotest.(check bool) "w1 < w2 in protocol order" true (Sbft_labels.Mw_ts.prec t1 t2);
          Alcotest.(check bool) "not reversed" false (Sbft_labels.Mw_ts.prec t2 t1)
      | _ -> Alcotest.fail "timestamps missing")
  | _ -> Alcotest.fail "expected two writes"

let test_read_write_roles_independent () =
  (* A client can hold a read and a write open at once (distinct state
     machines); both complete. *)
  let sys = make () in
  let w_done = ref false and r_done = ref false in
  System.write sys ~client:6 ~value:9 ~k:(fun () -> w_done := true) ();
  System.read sys ~client:6 ~k:(fun _ -> r_done := true) ();
  System.quiesce sys;
  Alcotest.(check bool) "write done" true !w_done;
  Alcotest.(check bool) "read done" true !r_done

let test_larger_deployment () =
  let sys = make ~n:16 ~f:3 ~clients:4 () in
  let result = ref H.Incomplete in
  System.write sys ~client:16 ~value:777
    ~k:(fun () -> System.read sys ~client:17 ~k:(fun o -> result := o) ())
    ();
  System.quiesce sys;
  Alcotest.check outcome "n=16 f=3 works" (H.Value 777) !result

let test_config_validation () =
  Alcotest.(check bool) "n=6 f=1 accepted" true (Config.make ~n:6 ~f:1 ~clients:1 () |> fun _ -> true);
  Alcotest.check_raises "n=5 f=1 rejected"
    (Invalid_argument "Config.make: n = 5 < 5f + 1 = 6 (pass ~allow_unsafe to experiment below the bound)")
    (fun () -> ignore (Config.make ~n:5 ~f:1 ~clients:1 ()));
  let unsafe = Config.make ~allow_unsafe:true ~n:5 ~f:1 ~clients:1 () in
  Alcotest.(check int) "unsafe config built" 5 unsafe.n

(* A fresh register costs O(n + clients) words beyond its engine, at
   most 16 per endpoint: channel and client state appear on first use,
   not (n + clients)^2 up front, and every client endpoint shares one
   handler. *)
let test_fresh_footprint_linear () =
  List.iter
    (fun clients ->
      let n = 6 in
      let sys = make ~n ~clients () in
      let words =
        Obj.reachable_words (Obj.repr sys) - Obj.reachable_words (Obj.repr (System.engine sys))
      in
      let budget = 16 * (n + clients) in
      if words > budget then
        Alcotest.failf "clients=%d: %d words beyond the engine, budget %d" clients words budget)
    [ 64; 512 ]

(* Word counts of a register must not depend on when the minor heap
   fills.  The register's metric handles are lazy, and a handle forced
   while still in the minor heap loses its two-word forward block at
   the next minor collection, while one promoted first keeps it.  So
   promote a fresh register before its first operation forces them. *)
let promote () = Gc.minor ()

(* A used register costs O(n) words in its client pool: one write and
   one read grow a fresh n = 6 register by as many words at 64 clients
   as at 512, and by at most 1,000.  A server keeps no channel state for
   the clients it answers: each frontier of a server-client pair lives
   in the client's row. *)
let test_used_register_linear_in_n () =
  let growth clients =
    let n = 6 in
    let sys = make ~n ~clients () in
    promote ();
    let before = Obj.reachable_words (Obj.repr sys) in
    System.write sys ~client:n ~value:1 ~k:(fun () -> System.read sys ~client:(n + 1) ()) ();
    System.quiesce sys;
    Obj.reachable_words (Obj.repr sys) - before
  in
  let small = growth 64 and large = growth 512 in
  if small <> large || large > 1000 then
    Alcotest.failf "a write and a read grow the register by %d words at 64 clients, %d at 512 (budget 1000)"
      small large

(* A client's first operation costs O(n) words: on a warm n = 6
   register, fresh clients' first reads grow it by as many words at 64
   clients as at 512, and by at most 64 each.  A client's channel row
   spans only the servers it talks to, and an idle client keeps no
   per-phase state. *)
let test_first_operation_linear_in_n () =
  let growth clients =
    let n = 6 in
    let sys = make ~n ~clients () in
    promote ();
    System.write sys ~client:n ~value:1 ~k:(fun () -> System.read sys ~client:(n + 1) ()) ();
    System.quiesce sys;
    let before = Obj.reachable_words (Obj.repr sys) in
    for client = n + 2 to n + 3 do
      System.read sys ~client ();
      System.quiesce sys
    done;
    float_of_int (Obj.reachable_words (Obj.repr sys) - before) /. 2.0
  in
  let small = growth 64 and large = growth 512 in
  if small <> large || large > 64.0 then
    Alcotest.failf "a first read grows the register by %.1f words at 64 clients, %.1f at 512 (budget 64)"
      small large

(* Garbage in the channel to a client that never ran an operation still
   reaches a (fresh, correct) automaton: it is delivered, not dropped
   for want of a handler. *)
let test_inject_reaches_untouched_client () =
  let sys = make () in
  let m = Sbft_sim.Engine.metrics (System.engine sys) in
  let count name = Sbft_sim.Metrics.get m name in
  let delivered = count Sbft_sim.Metric_names.net_delivered in
  let dropped = count Sbft_sim.Metric_names.net_dropped in
  Sbft_channel.Network.inject (System.network sys) ~src:0 ~dst:8
    (Msg.garbage (System.label_system sys) (Sbft_sim.Rng.create 3L));
  System.quiesce sys;
  Alcotest.(check int) "delivered" (delivered + 1) (count Sbft_sim.Metric_names.net_delivered);
  Alcotest.(check int) "nothing dropped" dropped (count Sbft_sim.Metric_names.net_dropped)

(* The client's protocol path allocates little: after a warm-up, a write
   followed by a read on an idle n = 6 register costs at most 1,250
   minor words, engine, network, servers and history included. *)
let test_write_read_allocation () =
  let sys = make ~clients:2 () in
  let pair value =
    System.write sys ~client:6 ~value ~k:(fun () -> System.read sys ~client:7 ()) ();
    System.quiesce sys
  in
  for value = 1 to 200 do
    pair value
  done;
  let pairs = 2000 in
  let before = Gc.minor_words () in
  for value = 1 to pairs do
    pair value
  done;
  let per_pair = (Gc.minor_words () -. before) /. float_of_int pairs in
  if per_pair > 1250.0 then Alcotest.failf "%.0f minor words per write-then-read, budget 1250" per_pair

let suite =
  [
    Alcotest.test_case "write then read" `Quick test_write_then_read;
    Alcotest.test_case "clean-start read" `Quick test_clean_start_read_returns_default;
    Alcotest.test_case "sequential chain of 10" `Quick test_sequential_chain;
    Alcotest.test_case "busy client rejected" `Quick test_busy_client_rejected;
    Alcotest.test_case "history records everything" `Quick test_history_records_everything;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed changes schedule" `Quick test_seed_changes_schedule;
    Alcotest.test_case "abandon" `Quick test_abandon;
    Alcotest.test_case "crashed client" `Quick test_crash_client_via_network;
    Alcotest.test_case "count_holding (Lemma 2)" `Quick test_count_holding_after_write;
    Alcotest.test_case "concurrent writers complete" `Quick test_concurrent_writers_complete;
    Alcotest.test_case "MWMR consecutive order (Lemma 8)" `Quick test_mwmr_consecutive_writes_ordered;
    Alcotest.test_case "read/write roles independent" `Quick test_read_write_roles_independent;
    Alcotest.test_case "larger deployment n=16" `Quick test_larger_deployment;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "fresh footprint O(n + clients)" `Quick test_fresh_footprint_linear;
    Alcotest.test_case "a used register costs O(n) words in the client pool" `Quick
      test_used_register_linear_in_n;
    Alcotest.test_case "a client's first operation costs O(n) words" `Quick
      test_first_operation_linear_in_n;
    Alcotest.test_case "inject reaches an untouched client" `Quick test_inject_reaches_untouched_client;
    Alcotest.test_case "write-then-read allocation" `Quick test_write_read_allocation;
  ]
