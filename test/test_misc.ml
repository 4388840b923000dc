(* Misc coverage: delay policies, message garbage robustness, config
   accessors, observer over the datalink transport, SWMR over the full
   stack. *)

open Sbft_core
module Delay = Sbft_channel.Delay
module Network = Sbft_channel.Network
module H = Sbft_spec.History

let rng () = Sbft_sim.Rng.create 3L

let test_delay_policies_in_range () =
  let r = rng () in
  for _ = 1 to 2000 do
    let d = Delay.fixed 5 r ~src:0 ~dst:1 in
    Alcotest.(check int) "fixed" 5 d
  done;
  for _ = 1 to 2000 do
    let d = Delay.uniform ~max:10 r ~src:0 ~dst:1 in
    if d < 1 || d > 10 then Alcotest.failf "uniform out of range: %d" d
  done;
  for _ = 1 to 2000 do
    let d = Delay.bimodal ~fast:3 ~slow:50 ~slow_prob:0.2 r ~src:0 ~dst:1 in
    if d < 1 || d > 50 then Alcotest.failf "bimodal out of range: %d" d
  done

let test_delay_skew_targets_nodes () =
  let r = rng () in
  let policy = Delay.skew ~fast_max:2 ~slow_max:100 ~slow_nodes:[ 3 ] in
  let saw_slow = ref false in
  for _ = 1 to 500 do
    let fast = policy r ~src:0 ~dst:1 in
    if fast > 2 then Alcotest.failf "fast pair drew %d" fast;
    if policy r ~src:0 ~dst:3 > 2 then saw_slow := true
  done;
  Alcotest.(check bool) "slow node draws beyond the fast range" true !saw_slow

let test_bimodal_has_both_modes () =
  let r = rng () in
  let policy = Delay.bimodal ~fast:3 ~slow:60 ~slow_prob:0.3 in
  let fast = ref 0 and slow = ref 0 in
  for _ = 1 to 2000 do
    if policy r ~src:0 ~dst:1 <= 3 then incr fast else incr slow
  done;
  Alcotest.(check bool) "both modes occur" true (!fast > 0 && !slow > 0)

let test_garbage_messages_cover_constructors () =
  (* Msg.garbage must eventually produce every constructor — the
     corruption model's coverage depends on it. *)
  let sys = Sbft_labels.Sbls.system ~k:6 in
  let r = rng () in
  let seen = Hashtbl.create 16 in
  for _ = 1 to 2000 do
    Hashtbl.replace seen (Msg.kind (Msg.garbage sys r)) ()
  done;
  Alcotest.(check int) "all nine constructors" 9 (Hashtbl.length seen)

let test_system_survives_arbitrary_injections () =
  (* Spray every endpoint with hundreds of arbitrary messages during a
     normal workload: nothing crashes, and the audited suffix is clean. *)
  let sys = System.create ~seed:9L (Config.make ~n:6 ~f:1 ~clients:3 ()) in
  let labels = System.label_system sys in
  let r = System.rng sys in
  let net = System.network sys in
  let engine = System.engine sys in
  for _ = 1 to 300 do
    let src = Sbft_sim.Rng.int r 9 and dst = Sbft_sim.Rng.int r 9 in
    if src <> dst then
      Sbft_sim.Engine.schedule engine ~delay:(Sbft_sim.Rng.int_in r 1 500) (fun () ->
          Network.inject net ~src ~dst (Msg.garbage labels r))
  done;
  let reg = Sbft_harness.Register.core sys in
  let o = Sbft_harness.Workload.run ~spec:{ Sbft_harness.Workload.default with ops_per_client = 15 } reg in
  Alcotest.(check bool) "no livelock under garbage rain" false o.livelocked;
  let after = Option.value ~default:max_int (reg.first_write_completion ()) in
  (* A garbage Write_req carries an unwritten value; a read racing it
     may legally return that value (it is a concurrent forged write) —
     so audit only Unwritten-free staleness here: violations that are
     not `Unwritten`. *)
  let h = System.history sys in
  let rep = Sbft_spec.Regularity.check ~after ~ts_prec:Sbft_labels.Mw_ts.prec h in
  let hard =
    List.filter
      (fun (v : Sbft_spec.Regularity.violation) ->
        match v.kind with `Unwritten -> false | _ -> true)
      rep.violations
  in
  Alcotest.(check int) "no hard violations under garbage rain" 0 (List.length hard)

let test_observer_sees_datalink_transport () =
  let transport = Network.Over_datalink { capacity = 4; loss = 0.0; max_delay = 3 } in
  let sys = System.create ~seed:10L ~transport (Config.make ~n:6 ~f:1 ~clients:2 ()) in
  let flow = Sbft_harness.Flow.attach (System.network sys) ~describe:(fun m -> Msg.kind_names.(Msg.kind m)) in
  System.write sys ~client:6 ~value:3 ();
  System.quiesce sys;
  let es = Sbft_harness.Flow.entries flow in
  Alcotest.(check bool) "sends observed over datalink" true
    (List.exists (fun (e : Sbft_harness.Flow.entry) -> e.event = `Send) es);
  Alcotest.(check bool) "deliveries observed over datalink" true
    (List.exists (fun (e : Sbft_harness.Flow.entry) -> e.event = `Deliver) es)

let test_swmr_over_datalink () =
  let transport = Network.Over_datalink { capacity = 4; loss = 0.2; max_delay = 4 } in
  (* one writing client, endpoint n = 6: §IV-B's single-writer register *)
  let sys = System.create ~seed:11L ~transport (Config.make ~n:6 ~f:1 ~clients:2 ()) in
  let got = ref H.Incomplete in
  System.write sys ~client:6 ~value:5 ~k:(fun () -> System.read sys ~client:7 ~k:(fun o -> got := o) ()) ();
  System.quiesce sys;
  Alcotest.(check bool) "swmr over the lossy stack" true (!got = H.Value 5)

let test_config_accessors () =
  let cfg = Config.make ~n:11 ~f:2 ~clients:3 () in
  Alcotest.(check int) "quorum" 9 (Config.quorum cfg);
  Alcotest.(check int) "witness threshold" 5 (Config.witness_threshold cfg);
  Alcotest.(check int) "endpoints" 14 (Config.endpoints cfg);
  Alcotest.(check (list int)) "client ids" [ 11; 12; 13 ] (Config.client_ids cfg);
  Alcotest.(check bool) "server id" true (Config.is_server cfg 10);
  Alcotest.(check bool) "client id not server" false (Config.is_server cfg 11)

let test_trace_records_deliveries () =
  let write_one ?trace_level () =
    let sys = System.create ~seed:13L ?trace_level (Config.make ~n:6 ~f:1 ~clients:2 ()) in
    let entries = ref [] in
    Sbft_sim.Trace.add_sink (Sbft_sim.Engine.trace (System.engine sys)) (fun ~time ev ->
        entries := (time, ev) :: !entries);
    System.write sys ~client:6 ~value:1 ();
    System.quiesce sys;
    !entries
  in
  let entries = write_one ~trace_level:Sbft_sim.Trace.On () in
  Alcotest.(check bool) "trace populated when enabled" true (List.length entries > 0);
  Alcotest.(check bool) "entries mention deliveries" true
    (List.exists
       (fun (_, ev) -> match ev with Sbft_sim.Event.Msg_delivered _ -> true | _ -> false)
       entries);
  (* And silent when disabled, even with a sink attached. *)
  Alcotest.(check int) "no trace when disabled" 0 (List.length (write_one ()))

let test_server_states_accessor () =
  let sys = System.create ~seed:12L (Config.make ~n:6 ~f:1 ~clients:2 ()) in
  System.write sys ~client:6 ~value:77 ();
  System.quiesce sys;
  let states = System.server_states sys in
  Alcotest.(check int) "one entry per server" 6 (List.length states);
  Alcotest.(check int) "all adopted" 6
    (List.length (List.filter (fun (_, v, _) -> v = 77) states))

let suite =
  [
    Alcotest.test_case "delay policies in range" `Quick test_delay_policies_in_range;
    Alcotest.test_case "skew targets nodes" `Quick test_delay_skew_targets_nodes;
    Alcotest.test_case "bimodal has both modes" `Quick test_bimodal_has_both_modes;
    Alcotest.test_case "garbage covers constructors" `Quick test_garbage_messages_cover_constructors;
    Alcotest.test_case "system survives garbage rain" `Quick test_system_survives_arbitrary_injections;
    Alcotest.test_case "observer over datalink" `Quick test_observer_sees_datalink_transport;
    Alcotest.test_case "swmr over datalink" `Quick test_swmr_over_datalink;
    Alcotest.test_case "config accessors" `Quick test_config_accessors;
    Alcotest.test_case "trace records deliveries" `Quick test_trace_records_deliveries;
    Alcotest.test_case "server_states accessor" `Quick test_server_states_accessor;
  ]
