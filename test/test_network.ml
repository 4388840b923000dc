(* Tests for the reliable FIFO network and its fault hooks. *)

open Sbft_sim
open Sbft_channel

let make ?(endpoints = 4) ?(delay = Delay.uniform ~max:10) () =
  let e = Engine.create ~seed:99L () in
  let net = Network.create e ~endpoints ~delay () in
  (e, net)

let collect net dst =
  let seen = ref [] in
  Network.register net dst (fun ~dst:_ ~src msg -> seen := (src, msg) :: !seen);
  fun () -> List.rev !seen

let test_delivery () =
  let e, net = make () in
  let got = collect net 1 in
  Network.send net ~src:0 ~dst:1 "hello";
  Engine.run e;
  Alcotest.(check (list (pair int string))) "delivered with src" [ (0, "hello") ] (got ())

let test_fifo_per_channel () =
  let e, net = make ~delay:(Delay.uniform ~max:50) () in
  let got = collect net 1 in
  for i = 0 to 99 do
    Network.send net ~src:0 ~dst:1 i
  done;
  Engine.run e;
  Alcotest.(check (list int)) "FIFO despite random delays" (List.init 100 Fun.id)
    (List.map snd (got ()))

let test_fifo_independent_channels () =
  let e, net = make ~delay:(Delay.uniform ~max:50) () in
  let got = collect net 2 in
  for i = 0 to 19 do
    Network.send net ~src:0 ~dst:2 (1000 + i);
    Network.send net ~src:1 ~dst:2 (2000 + i)
  done;
  Engine.run e;
  let from0 = List.filter (fun (s, _) -> s = 0) (got ()) and from1 = List.filter (fun (s, _) -> s = 1) (got ()) in
  Alcotest.(check (list int)) "channel 0 FIFO" (List.init 20 (fun i -> 1000 + i)) (List.map snd from0);
  Alcotest.(check (list int)) "channel 1 FIFO" (List.init 20 (fun i -> 2000 + i)) (List.map snd from1)

let test_no_handler_is_dropped () =
  let e, net = make () in
  Network.send net ~src:0 ~dst:3 "void";
  Engine.run e;
  Alcotest.(check int) "counted as dropped" 1 (Metrics.get (Engine.metrics e) "net.dropped")

let test_crash_receiver () =
  let e, net = make () in
  let got = collect net 1 in
  Network.crash net 1;
  Network.send net ~src:0 ~dst:1 "lost";
  Engine.run e;
  Alcotest.(check int) "crashed endpoint receives nothing" 0 (List.length (got ()));
  Alcotest.(check bool) "crashed flag" true (Network.crashed net 1)

let test_crash_sender () =
  let e, net = make () in
  let got = collect net 1 in
  Network.crash net 0;
  Network.send net ~src:0 ~dst:1 "lost";
  Engine.run e;
  Alcotest.(check int) "crashed endpoint sends nothing" 0 (List.length (got ()))

let test_tamper_drop () =
  let e, net = make () in
  let got = collect net 1 in
  Network.set_tamper net (Some (fun ~src:_ ~dst:_ _ -> None));
  Network.send net ~src:0 ~dst:1 "x";
  Engine.run e;
  Alcotest.(check int) "tampered away" 0 (List.length (got ()))

let test_tamper_replace_and_uninstall () =
  let e, net = make () in
  let got = collect net 1 in
  Network.set_tamper net (Some (fun ~src:_ ~dst:_ _ -> Some "evil"));
  Network.send net ~src:0 ~dst:1 "x";
  Engine.run e;
  Network.set_tamper net None;
  Network.send net ~src:0 ~dst:1 "clean";
  Engine.run e;
  Alcotest.(check (list string)) "replace then clean" [ "evil"; "clean" ] (List.map snd (got ()))

let test_inject () =
  let e, net = make () in
  let got = collect net 2 in
  Network.inject net ~src:1 ~dst:2 "forged";
  Engine.run e;
  Alcotest.(check (list (pair int string))) "forged delivery" [ (1, "forged") ] (got ());
  Alcotest.(check int) "counted" 1 (Metrics.get (Engine.metrics e) "net.injected")

let test_inject_respects_fifo () =
  let e, net = make ~delay:(Delay.fixed 20) () in
  let got = collect net 1 in
  Network.inject net ~src:0 ~dst:1 "first";
  Network.send net ~src:0 ~dst:1 "second";
  Engine.run e;
  Alcotest.(check (list string)) "injected before later sends" [ "first"; "second" ]
    (List.map snd (got ()))

let test_slow_channel () =
  let e, net = make ~delay:(Delay.fixed 2) () in
  let times = ref [] in
  Network.register net 1 (fun ~dst:_ ~src:_ msg -> times := (msg, Engine.now e) :: !times);
  Network.set_slow net ~src:0 ~dst:1 ~factor:10;
  Network.send net ~src:0 ~dst:1 "slow";
  Network.send net ~src:2 ~dst:1 "fast";
  Engine.run e;
  let t_of m = List.assoc m !times in
  Alcotest.(check int) "fast channel unchanged" 2 (t_of "fast");
  Alcotest.(check int) "slow channel multiplied" 20 (t_of "slow")

let test_slow_node () =
  let e, net = make ~delay:(Delay.fixed 3) () in
  let t1 = ref 0 in
  Network.register net 1 (fun ~dst:_ ~src:_ _ -> t1 := Engine.now e);
  Network.set_slow_node net 1 ~factor:5;
  Network.send net ~src:0 ~dst:1 ();
  Engine.run e;
  Alcotest.(check int) "both directions slowed" 15 !t1

let test_broadcast () =
  let e, net = make () in
  let g1 = collect net 1 and g2 = collect net 2 and g3 = collect net 3 in
  Network.broadcast net ~src:0 ~dst:[ 1; 2; 3 ] "all";
  Engine.run e;
  List.iter (fun g -> Alcotest.(check int) "one copy each" 1 (List.length (g ()))) [ g1; g2; g3 ]

let test_classify_metrics () =
  let e = Engine.create ~seed:1L () in
  let net =
    Network.create e ~endpoints:2 ~delay:(Delay.fixed 1)
      ~kinds:{ index = (fun _ -> 0); names = [| "ping" |] }
      ()
  in
  Network.register net 1 (fun ~dst:_ ~src:_ _ -> ());
  Network.send net ~src:0 ~dst:1 "ping";
  Network.send net ~src:0 ~dst:1 "ping";
  Engine.run e;
  Alcotest.(check int) "per-type counter" 2 (Metrics.get (Engine.metrics e) "net.sent.ping")

let test_in_flight () =
  let e, net = make ~delay:(Delay.fixed 5) () in
  Network.register net 1 (fun ~dst:_ ~src:_ _ -> ());
  Network.send net ~src:0 ~dst:1 ();
  Alcotest.(check int) "queued" 1 (Network.in_flight net);
  Engine.run e;
  Alcotest.(check int) "drained" 0 (Network.in_flight net)

(* A client endpoint's frontier row first spans the servers only; its
   first send to another client widens it.  The widened row keeps the
   frontier, so a short delay drawn after it still queues behind the
   long one on the same channel. *)
let test_fifo_across_widened_row () =
  let e = Engine.create ~seed:99L () in
  let ticks = ref 50 in
  let net = Network.create e ~endpoints:4 ~servers:2 ~delay:(fun _ ~src:_ ~dst:_ -> !ticks) () in
  let got = collect net 0 in
  Network.send net ~src:2 ~dst:0 "long";
  ticks := 1;
  Network.send net ~src:2 ~dst:3 "widen";
  Network.send net ~src:2 ~dst:0 "short";
  Engine.run e;
  Alcotest.(check (list (pair int string))) "send order" [ (2, "long"); (2, "short") ] (got ())

(* Each direction of a server-client pair has a frontier of its own: a
   reply sent after a slow request arrives at its own delay.  The
   client's later send to another client widens its row, which must
   keep every frontier it held and give the new channel a cell of its
   own. *)
let test_directions_have_own_frontiers () =
  let e = Engine.create ~seed:99L () in
  let ticks = ref 0 in
  let net = Network.create e ~endpoints:4 ~servers:2 ~delay:(fun _ ~src:_ ~dst:_ -> !ticks) () in
  let arrived = ref [] in
  for id = 0 to 3 do
    Network.register net id (fun ~dst:_ ~src:_ msg -> arrived := (msg, Engine.now e) :: !arrived)
  done;
  let send ~src ~dst ~delay msg =
    ticks := delay;
    Network.send net ~src ~dst msg
  in
  send ~src:2 ~dst:0 ~delay:50 "request";
  send ~src:1 ~dst:2 ~delay:30 "slow reply";
  send ~src:0 ~dst:2 ~delay:1 "reply";
  send ~src:2 ~dst:3 ~delay:1 "widen";
  send ~src:0 ~dst:2 ~delay:1 "second reply";
  send ~src:2 ~dst:0 ~delay:1 "second request";
  send ~src:1 ~dst:2 ~delay:1 "second slow reply";
  Engine.run e;
  List.iter
    (fun (msg, at) -> Alcotest.(check (option int)) msg (Some at) (List.assoc_opt msg !arrived))
    [
      ("request", 50);
      ("slow reply", 30);
      ("reply", 1);
      ("widen", 1);
      ("second reply", 2);
      ("second request", 51);
      ("second slow reply", 31);
    ]

let qcheck_fifo_random_delays =
  QCheck.Test.make ~name:"network: per-channel FIFO under any delay policy" ~count:50
    QCheck.(pair (int_bound 10_000) (int_range 1 40))
    (fun (seed, dmax) ->
      let e = Engine.create ~seed:(Int64.of_int seed) () in
      let net = Network.create e ~endpoints:2 ~delay:(Delay.uniform ~max:dmax) () in
      let seen = ref [] in
      Network.register net 1 (fun ~dst:_ ~src:_ m -> seen := m :: !seen);
      for i = 0 to 30 do
        Network.send net ~src:0 ~dst:1 i
      done;
      Engine.run e;
      List.rev !seen = List.init 31 Fun.id)

let suite =
  [
    Alcotest.test_case "delivery with source" `Quick test_delivery;
    Alcotest.test_case "FIFO per channel" `Quick test_fifo_per_channel;
    Alcotest.test_case "FIFO independent channels" `Quick test_fifo_independent_channels;
    Alcotest.test_case "no handler -> dropped" `Quick test_no_handler_is_dropped;
    Alcotest.test_case "crash receiver" `Quick test_crash_receiver;
    Alcotest.test_case "crash sender" `Quick test_crash_sender;
    Alcotest.test_case "tamper drop" `Quick test_tamper_drop;
    Alcotest.test_case "tamper replace + uninstall" `Quick test_tamper_replace_and_uninstall;
    Alcotest.test_case "inject forged message" `Quick test_inject;
    Alcotest.test_case "inject respects FIFO" `Quick test_inject_respects_fifo;
    Alcotest.test_case "slow channel" `Quick test_slow_channel;
    Alcotest.test_case "slow node" `Quick test_slow_node;
    Alcotest.test_case "broadcast" `Quick test_broadcast;
    Alcotest.test_case "classify metrics" `Quick test_classify_metrics;
    Alcotest.test_case "in-flight accounting" `Quick test_in_flight;
    Alcotest.test_case "FIFO holds across a widened row" `Quick test_fifo_across_widened_row;
    Alcotest.test_case "a server->client send ignores the pair's client->server frontier" `Quick
      test_directions_have_own_frontiers;
    QCheck_alcotest.to_alcotest qcheck_fifo_random_delays;
  ]
