(* Unit tests for the server automaton (Figures 1b/2b/3b). *)

open Sbft_core
module Engine = Sbft_sim.Engine
module Network = Sbft_channel.Network
module Mw_ts = Sbft_labels.Mw_ts
module Sbls = Sbft_labels.Sbls

let setup ?(n = 6) ?(f = 1) () =
  let cfg = Config.make ~n ~f ~clients:2 () in
  let engine = Engine.create ~seed:17L () in
  let net =
    Network.create engine ~endpoints:(Config.endpoints cfg) ~delay:(Sbft_channel.Delay.fixed 1) ()
  in
  let sys = Sbls.system ~k:cfg.k in
  let server = Server.create cfg sys net ~meters:(Meters.shared (Engine.metrics engine)) ~id:0 in
  let client = cfg.n in
  let inbox = ref [] in
  Network.register net client (fun ~dst:_ ~src msg -> inbox := (src, msg) :: !inbox);
  (engine, net, sys, server, client, fun () -> List.rev !inbox)

let ts_of sys i =
  let rec go l n = if n = 0 then l else go (Sbls.next sys [ l ]) (n - 1) in
  Mw_ts.make ~label:(go (Sbls.initial sys) i) ~writer:7

let test_get_ts () =
  let engine, _, sys, server, client, inbox = setup () in
  Server.handle server ~src:client Msg.Get_ts;
  Engine.run engine;
  match inbox () with
  | [ (0, Msg.Ts_reply { ts }) ] ->
      Alcotest.(check bool) "initial timestamp" true (Mw_ts.equal ts (Mw_ts.initial sys))
  | _ -> Alcotest.fail "expected one TS_REPLY"

let test_write_ack_when_dominating () =
  let engine, _, sys, server, client, inbox = setup () in
  let ts = ts_of sys 1 in
  Server.handle server ~src:client (Msg.Write_req { value = 5; ts });
  Engine.run engine;
  (match inbox () with
  | [ (0, Msg.Write_ack { ack; _ }) ] -> Alcotest.(check bool) "ACK" true ack
  | _ -> Alcotest.fail "expected one WRITE_ACK");
  Alcotest.(check int) "value adopted" 5 (Server.value server);
  Alcotest.(check bool) "ts adopted" true (Mw_ts.equal ts (Server.ts server))

let test_write_nack_still_adopts () =
  let engine, _, sys, server, client, inbox = setup () in
  (* First a dominating write, then a non-dominating one. *)
  Server.handle server ~src:client (Msg.Write_req { value = 5; ts = ts_of sys 1 });
  let stale = Mw_ts.make ~label:(Sbls.initial sys) ~writer:0 in
  Server.handle server ~src:client (Msg.Write_req { value = 6; ts = stale });
  Engine.run engine;
  (match inbox () with
  | [ _; (0, Msg.Write_ack { ack; _ }) ] -> Alcotest.(check bool) "NACK" false ack
  | _ -> Alcotest.fail "expected two WRITE_ACKs");
  (* The paper's Figure 1b: adopt in any case. *)
  Alcotest.(check int) "value adopted anyway" 6 (Server.value server)

let test_old_vals_shift_and_truncate () =
  let _, _, sys, server, client, _ = setup () in
  for i = 1 to 10 do
    Server.handle server ~src:client (Msg.Write_req { value = i; ts = ts_of sys i })
  done;
  let old = Server.old_vals server in
  Alcotest.(check int) "window bounded by history_depth" 6 (List.length old);
  (* Newest-first: the previous value (9) heads the window. *)
  (match old with
  | { Msg.value = 9; _ } :: _ -> ()
  | _ -> Alcotest.fail "expected value 9 at window head");
  Alcotest.(check bool) "holds current" true (Server.holds server ~value:10 ~ts:(ts_of sys 10));
  Alcotest.(check bool) "holds windowed" true (Server.holds server ~value:7 ~ts:(ts_of sys 7));
  Alcotest.(check bool) "forgot beyond window" false (Server.holds server ~value:1 ~ts:(ts_of sys 1))

let test_read_registers_and_replies () =
  let engine, _, _, server, client, inbox = setup () in
  Server.handle server ~src:client (Msg.Read_req { label = 2 });
  Engine.run engine;
  (match inbox () with
  | [ (0, Msg.Reply { label = 2; value = 0; _ }) ] -> ()
  | _ -> Alcotest.fail "expected a REPLY echoing label 2");
  Alcotest.(check (list (pair int int))) "running reader recorded" [ (client, 2) ]
    (Server.running_readers server)

let test_write_forwards_to_running_readers () =
  let engine, _, sys, server, client, inbox = setup () in
  Server.handle server ~src:client (Msg.Read_req { label = 1 });
  Server.handle server ~src:client (Msg.Write_req { value = 42; ts = ts_of sys 1 });
  Engine.run engine;
  let forwarded =
    List.filter (function _, Msg.Reply { value = 42; label = 1; _ } -> true | _ -> false) (inbox ())
  in
  Alcotest.(check int) "write forwarded to the reader" 1 (List.length forwarded)

let test_complete_read_unregisters () =
  let engine, _, sys, server, client, inbox = setup () in
  Server.handle server ~src:client (Msg.Read_req { label = 1 });
  Server.handle server ~src:client (Msg.Complete_read { label = 1 });
  Server.handle server ~src:client (Msg.Write_req { value = 9; ts = ts_of sys 1 });
  Engine.run engine;
  Alcotest.(check (list (pair int int))) "reader gone" [] (Server.running_readers server);
  let forwarded =
    List.filter (function _, Msg.Reply { value = 9; _ } -> true | _ -> false) (inbox ())
  in
  Alcotest.(check int) "no forwarding after COMPLETE_READ" 0 (List.length forwarded)

let test_flush_echo () =
  let engine, _, _, server, client, inbox = setup () in
  Server.handle server ~src:client (Msg.Flush { label = 7 });
  Engine.run engine;
  match inbox () with
  | [ (0, Msg.Flush_ack { label = 7 }) ] -> ()
  | _ -> Alcotest.fail "expected FLUSH_ACK(7)"

let test_client_bound_messages_ignored () =
  let engine, _, sys, server, client, inbox = setup () in
  Server.handle server ~src:client (Msg.Ts_reply { ts = ts_of sys 1 });
  Server.handle server ~src:client (Msg.Flush_ack { label = 0 });
  Engine.run engine;
  Alcotest.(check int) "no reaction" 0 (List.length (inbox ()));
  Alcotest.(check int) "state untouched" 0 (Server.value server)

let test_corrupt_light_vs_heavy () =
  let _, _, _, server, _, _ = setup () in
  let rng = Sbft_sim.Rng.create 4L in
  Server.corrupt server rng ~severity:`Light;
  Alcotest.(check (list (pair int int))) "light keeps running_read" [] (Server.running_readers server);
  Server.corrupt server rng ~severity:`Heavy;
  (* Heavy may scramble everything; the automaton must still answer. *)
  let engine, _, _, server2, client, inbox = setup () in
  Server.corrupt server2 rng ~severity:`Heavy;
  Server.handle server2 ~src:client Msg.Get_ts;
  Engine.run engine;
  Alcotest.(check int) "still answers after heavy corruption" 1 (List.length (inbox ()))

let test_writes_applied_counter () =
  let _, _, sys, server, client, _ = setup () in
  for i = 1 to 3 do
    Server.handle server ~src:client (Msg.Write_req { value = i; ts = ts_of sys i })
  done;
  Alcotest.(check int) "counted" 3 (Server.writes_applied server);
  Server.reset_statistics server;
  Alcotest.(check int) "reset" 0 (Server.writes_applied server)

let suite =
  [
    Alcotest.test_case "GET_TS reply" `Quick test_get_ts;
    Alcotest.test_case "WRITE ack when dominating" `Quick test_write_ack_when_dominating;
    Alcotest.test_case "WRITE nack still adopts" `Quick test_write_nack_still_adopts;
    Alcotest.test_case "old_vals shift and truncate" `Quick test_old_vals_shift_and_truncate;
    Alcotest.test_case "READ registers and replies" `Quick test_read_registers_and_replies;
    Alcotest.test_case "WRITE forwards to running readers" `Quick test_write_forwards_to_running_readers;
    Alcotest.test_case "COMPLETE_READ unregisters" `Quick test_complete_read_unregisters;
    Alcotest.test_case "FLUSH echo" `Quick test_flush_echo;
    Alcotest.test_case "client-bound messages ignored" `Quick test_client_bound_messages_ignored;
    Alcotest.test_case "corrupt light vs heavy" `Quick test_corrupt_light_vs_heavy;
    Alcotest.test_case "writes_applied counter" `Quick test_writes_applied_counter;
  ]
