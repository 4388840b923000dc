(* Tests for the message-flow capture and Figure-4 projections. *)

open Sbft_core
module Flow = Sbft_harness.Flow
module Network = Sbft_channel.Network

let describe m = Msg.kind_names.(Msg.kind m)

let setup () =
  let sys = System.create ~seed:4L (Config.make ~n:6 ~f:1 ~clients:2 ()) in
  let flow = Flow.attach (System.network sys) ~describe in
  (sys, flow)

let test_captures_both_directions () =
  let sys, flow = setup () in
  System.write sys ~client:6 ~value:1 ();
  System.quiesce sys;
  let es = Flow.entries flow in
  Alcotest.(check bool) "sends captured" true
    (List.exists (fun (e : Flow.entry) -> e.event = `Send) es);
  Alcotest.(check bool) "deliveries captured" true
    (List.exists (fun (e : Flow.entry) -> e.event = `Deliver) es);
  (* Every delivery has a matching earlier send of the same label. *)
  List.iter
    (fun (e : Flow.entry) ->
      if e.event = `Deliver then
        if
          not
            (List.exists
               (fun (s : Flow.entry) ->
                 s.event = `Send && s.src = e.src && s.dst = e.dst && s.label = e.label
                 && s.time <= e.time)
               es)
        then Alcotest.failf "delivery of %s without a prior send" e.label)
    es

let test_write_message_pattern () =
  (* Figure 1's shape: GET_TS broadcast, TS_REPLYs back, WRITE broadcast,
     ACK/NACKs back — in that order at the writer. *)
  let sys, flow = setup () in
  System.write sys ~client:6 ~value:1 ();
  System.quiesce sys;
  let at_writer =
    List.filter
      (fun (e : Flow.entry) ->
        match e.event with `Send -> e.src = 6 | `Deliver -> e.dst = 6)
      (Flow.entries flow)
  in
  let labels = List.map (fun (e : Flow.entry) -> e.label) at_writer in
  let first_idx l =
    let rec go i = function [] -> -1 | x :: r -> if x = l then i else go (i + 1) r in
    go 0 labels
  in
  Alcotest.(check bool) "GET_TS before TS_REPLY" true (first_idx "get_ts" < first_idx "ts_reply");
  Alcotest.(check bool) "TS_REPLY before WRITE" true (first_idx "ts_reply" < first_idx "write_req");
  Alcotest.(check bool) "WRITE before ACK" true (first_idx "write_req" < first_idx "write_ack")

let test_read_message_pattern () =
  (* Figure 2/3's shape: FLUSH, FLUSH_ACK, READ, REPLY, COMPLETE_READ. *)
  let sys, flow = setup () in
  System.write sys ~client:6 ~value:1 ~k:(fun () -> System.read sys ~client:7 ()) ();
  System.quiesce sys;
  let labels =
    List.filter_map
      (fun (e : Flow.entry) ->
        match e.event with
        | `Send when e.src = 7 -> Some e.label
        | `Deliver when e.dst = 7 -> Some e.label
        | _ -> None)
      (Flow.entries flow)
  in
  let first_idx l =
    let rec go i = function [] -> max_int | x :: r -> if x = l then i else go (i + 1) r in
    go 0 labels
  in
  Alcotest.(check bool) "FLUSH first" true (first_idx "flush" = 0);
  Alcotest.(check bool) "FLUSH before FLUSH_ACK" true (first_idx "flush" < first_idx "flush_ack");
  Alcotest.(check bool) "FLUSH_ACK before READ" true (first_idx "flush_ack" < first_idx "read_req");
  Alcotest.(check bool) "READ before REPLY" true (first_idx "read_req" < first_idx "reply");
  Alcotest.(check bool) "REPLY before COMPLETE_READ" true
    (first_idx "reply" < first_idx "complete_read")

let test_projection_folds_broadcasts () =
  let sys, flow = setup () in
  System.write sys ~client:6 ~value:1 ();
  System.quiesce sys;
  let name i = if i < 6 then Printf.sprintf "s%d" i else Printf.sprintf "c%d" i in
  let proj = Flow.projection ~endpoint:6 ~name flow in
  Alcotest.(check bool) "broadcast folded into a range" true
    (let rec contains_sub i =
       i + 3 <= String.length proj
       && (String.sub proj i 3 = "(6)" || contains_sub (i + 1))
     in
     contains_sub 0)

(* The [trace] subcommand's session, called directly. *)
let test_figure4_session () =
  let r = Flow.figure4 ~seed:42L in
  Alcotest.(check bool) "read returns the write" true (r.outcome = Sbft_spec.History.Value 7);
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "writer's projection ends before the read" true
    (contains r.write_projection "projection at c6 (t in [0, "
    && contains r.write_projection "──GET_TS──▶ s0..s5 (6)");
  Alcotest.(check bool) "reader's projection starts with the read" true
    (contains r.read_projection "projection at c7 (t in ["
    && contains r.read_projection "──FLUSH(l1)──▶ s0..s5 (6)");
  Alcotest.(check bool) "sends counted" true
    (List.assoc Sbft_sim.Metric_names.net_sent r.counters > 0);
  Alcotest.(check bool) "deterministic" true (Flow.figure4 ~seed:42L = r)

let suite =
  [
    Alcotest.test_case "captures both directions" `Quick test_captures_both_directions;
    Alcotest.test_case "write pattern (Figure 1)" `Quick test_write_message_pattern;
    Alcotest.test_case "read pattern (Figures 2-3)" `Quick test_read_message_pattern;
    Alcotest.test_case "projection folds broadcasts" `Quick test_projection_folds_broadcasts;
    Alcotest.test_case "figure-4 session" `Quick test_figure4_session;
  ]
