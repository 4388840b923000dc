(* Tests for counters, series, histograms, and the typed trace. *)

open Sbft_sim

let test_counters () =
  let m = Metrics.create () in
  Alcotest.(check int) "unset is 0" 0 (Metrics.get m "a");
  Metrics.incr m "a";
  Metrics.incr m "a";
  Metrics.add m "a" 3;
  Alcotest.(check int) "incr and add" 5 (Metrics.get m "a");
  Metrics.incr m "b";
  Alcotest.(check (list (pair string int))) "sorted listing" [ ("a", 5); ("b", 1) ] (Metrics.counters m)

let test_series () =
  let m = Metrics.create () in
  Alcotest.(check int) "empty series" 0 (Array.length (Metrics.series m "lat"));
  for i = 1 to 40 do
    Metrics.observe m "lat" (float_of_int i)
  done;
  let s = Metrics.series m "lat" in
  Alcotest.(check int) "length past initial capacity" 40 (Array.length s);
  Alcotest.(check (float 0.0)) "order preserved" 40.0 s.(39)

let test_histograms () =
  let m = Metrics.create () in
  Alcotest.(check bool) "unset is None" true (Metrics.histogram m "h" = None);
  Metrics.record m "h" 1.0;
  (* bucket 0: <= 1 *)
  Metrics.record m "h" 3.0;
  (* bucket 2: <= 4 *)
  Metrics.record m "h" 1e9;
  (* overflow *)
  let h = Option.get (Metrics.histogram m "h") in
  Alcotest.(check int) "count" 3 h.count;
  Alcotest.(check (float 1e-6)) "sum" (1.0 +. 3.0 +. 1e9) h.sum;
  Alcotest.(check (float 0.0)) "min" 1.0 h.min;
  Alcotest.(check (float 0.0)) "max" 1e9 h.max;
  Alcotest.(check int) "counts length = bounds + overflow" (Array.length h.bounds + 1)
    (Array.length h.counts);
  Alcotest.(check int) "bucket 0" 1 h.counts.(0);
  Alcotest.(check int) "bucket 2" 1 h.counts.(2);
  Alcotest.(check int) "overflow bucket" 1 h.counts.(Array.length h.counts - 1);
  Alcotest.(check int) "listing" 1 (List.length (Metrics.histograms m))

let test_reset () =
  let m = Metrics.create () in
  Metrics.incr m "a";
  Metrics.observe m "s" 1.0;
  Metrics.record m "h" 2.0;
  Metrics.reset m;
  Alcotest.(check int) "counter reset" 0 (Metrics.get m "a");
  Alcotest.(check int) "series reset" 0 (Array.length (Metrics.series m "s"));
  Alcotest.(check bool) "histogram reset" true (Metrics.histogram m "h" = None)

(* ------------------------------------------------------------------ *)
(* trace dial and sinks *)

(* A trace at [level] with one sink collecting what it receives; the
   closure returns it oldest first. *)
let collecting ?sample level =
  let t = Trace.create ?sample ~level () in
  let got = ref [] in
  Trace.add_sink t (fun ~time ev -> got := (time, ev) :: !got);
  (t, fun () -> List.rev !got)

let notes events =
  List.map
    (fun (time, ev) ->
      match ev with Event.Note { detail } -> (time, detail) | e -> (time, Event.name e))
    events

let test_trace_disabled_is_noop () =
  let t, got = collecting Trace.Off in
  Trace.log t ~time:1 "x";
  Trace.emit t ~time:2 (Event.Note { detail = "y" });
  Alcotest.(check bool) "admits nothing" false (Trace.admits t ~span:0);
  Alcotest.(check int) "nothing delivered" 0 (List.length (got ()))

let test_trace_retention () =
  let t, got = collecting Trace.Forensic in
  for i = 1 to 3 do
    Trace.log t ~time:i (string_of_int i)
  done;
  Alcotest.(check (list (pair int string)))
    "oldest first" [ (1, "1"); (2, "2"); (3, "3") ] (notes (got ()));
  (* Free-form notes are forensic-only: at [On] they cost nothing. *)
  let on, got_on = collecting Trace.On in
  Trace.log on ~time:1 "x";
  Alcotest.(check int) "notes gated below Forensic" 0 (List.length (got_on ()))

let test_trace_admits_needs_a_sink () =
  (* nothing is built for a trace no sink reads, at any level *)
  List.iter
    (fun level ->
      let t = Trace.create ~sample:1.0 ~level () in
      Alcotest.(check bool)
        (Trace.level_to_string level ^ ": no sink, nothing admitted")
        false
        (Trace.admits t ~span:0 || Trace.admits t ~span:Event.no_span);
      Trace.add_sink t (fun ~time:_ _ -> ());
      Alcotest.(check bool)
        (Trace.level_to_string level ^ ": a sink admits unless off")
        (level <> Trace.Off) (Trace.admits t ~span:0))
    Trace.levels

let test_trace_head_sampling () =
  let t, _ = collecting ~sample:0.25 Trace.Sampled in
  let spans = List.init 4000 Fun.id in
  let first = List.map (fun span -> Trace.admits t ~span) spans in
  (* once per span: a second pass, on another trace, agrees call for call *)
  let t', _ = collecting ~sample:0.25 Trace.Sampled in
  Alcotest.(check (list bool)) "a pure function of the span id" first
    (List.map (fun span -> Trace.admits t' ~span) spans);
  let kept = List.length (List.filter Fun.id first) in
  Alcotest.(check bool) (Printf.sprintf "about a quarter kept (%d of 4000)" kept) true
    (kept > 850 && kept < 1150);
  (* span decisions never advance the per-event sampler: span-less
     draws come out the same with or without span queries between them *)
  let draws interleave =
    let t, _ = collecting ~sample:0.5 Trace.Sampled in
    List.init 200 (fun i ->
        if interleave then ignore (Trace.admits t ~span:i : bool);
        Trace.admits t ~span:Event.no_span)
  in
  Alcotest.(check (list bool)) "span-less draws independent of spans" (draws false) (draws true)

let test_trace_logf_lazy () =
  let t, got = collecting Trace.Forensic in
  Trace.logf t ~time:7 "n=%d s=%s" 42 "hi";
  Alcotest.(check (list (pair int string))) "formatted" [ (7, "n=42 s=hi") ] (notes (got ()));
  (* When disabled, the formatter must never run — %t's closure is the witness. *)
  let off, _ = collecting Trace.Off in
  let ran = ref false in
  Trace.logf off ~time:1 "%t" (fun fmt ->
      ran := true;
      Format.pp_print_string fmt "x");
  Alcotest.(check bool) "disabled logf builds nothing" false !ran

let test_trace_typed_events () =
  let t, got = collecting Trace.On in
  Trace.emit t ~time:3 (Event.Msg_sent { src = 6; dst = 0; kind = "write_req"; span = Event.no_span });
  Trace.emit t ~time:5
    (Event.Op_finished
       { op_id = 9; client = 6; kind = "write"; outcome = "ok"; ticks = 2; span = Event.no_span });
  match got () with
  | [ (3, e1); (5, e2) ] ->
      Alcotest.(check string) "name 1" "msg_sent" (Event.name e1);
      Alcotest.(check (list int)) "endpoints" [ 6; 0 ] (Event.endpoints e1);
      Alcotest.(check (option int)) "no op_id on msg" None (Event.op_id e1);
      Alcotest.(check (option int)) "op_id threaded" (Some 9) (Event.op_id e2);
      Alcotest.(check bool) "pp renders" true (String.length (Event.to_string e2) > 0)
  | es -> Alcotest.failf "expected 2 entries, got %d" (List.length es)

(* ------------------------------------------------------------------ *)
(* JSON + the JSONL sink *)

let test_json_roundtrip () =
  let j =
    Json.Obj
      [
        ("a", Json.Int 3);
        ("b", Json.String "x\"y\n");
        ("c", Json.List [ Json.Bool true; Json.Null; Json.Float 2.5 ]);
      ]
  in
  let s = Json.to_string j in
  (match Json.of_string s with
  | Ok j' -> Alcotest.(check bool) "roundtrip" true (j = j')
  | Error e -> Alcotest.failf "parse failed: %s" e);
  Alcotest.(check bool) "garbage rejected" true
    (match Json.of_string "{\"a\":" with Error _ -> true | Ok _ -> false)

let test_event_to_json () =
  let j = Event.to_json ~time:11 (Event.Msg_dropped { src = 2; dst = 8; kind = "reply"; reason = "crashed"; span = Event.no_span }) in
  let s = Json.to_string j in
  match Json.of_string s with
  | Error e -> Alcotest.failf "event json unparseable: %s" e
  | Ok j' ->
      Alcotest.(check bool) "t field" true (Json.member "t" j' = Some (Json.Int 11));
      Alcotest.(check bool) "ev field" true (Json.member "ev" j' = Some (Json.String "msg_dropped"));
      Alcotest.(check bool) "reason field" true
        (Json.member "reason" j' = Some (Json.String "crashed"))

let test_jsonl_sink () =
  let path = Filename.temp_file "sbft_trace" ".jsonl" in
  let oc = open_out path in
  let t = Trace.create ~level:Trace.On () in
  Trace.add_sink t (Trace.jsonl_sink oc);
  Trace.emit t ~time:1 (Event.Op_started { op_id = 0; client = 6; kind = "write"; span = 0 });
  Trace.emit t ~time:4 (Event.Quorum_formed { op_id = 0; client = 6; phase = "ts"; size = 5; span = 0 });
  Trace.emit t ~time:6 (Event.Fault_injected { desc = "corrupt s0" });
  close_out oc;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  let lines = List.rev !lines in
  Alcotest.(check int) "one line per event" 3 (List.length lines);
  List.iter
    (fun line ->
      match Json.of_string line with
      | Ok j ->
          Alcotest.(check bool) "has ev" true (Json.member "ev" j <> None);
          Alcotest.(check bool) "has t" true (Json.member "t" j <> None)
      | Error e -> Alcotest.failf "line %S did not parse: %s" line e)
    lines

let suite =
  [
    Alcotest.test_case "counters" `Quick test_counters;
    Alcotest.test_case "series" `Quick test_series;
    Alcotest.test_case "histograms" `Quick test_histograms;
    Alcotest.test_case "reset" `Quick test_reset;
    Alcotest.test_case "trace disabled" `Quick test_trace_disabled_is_noop;
    Alcotest.test_case "trace retention" `Quick test_trace_retention;
    Alcotest.test_case "trace admits only with a sink" `Quick test_trace_admits_needs_a_sink;
    Alcotest.test_case "trace head sampling per span" `Quick test_trace_head_sampling;
    Alcotest.test_case "trace logf" `Quick test_trace_logf_lazy;
    Alcotest.test_case "typed events" `Quick test_trace_typed_events;
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "event to_json" `Quick test_event_to_json;
    Alcotest.test_case "jsonl sink" `Quick test_jsonl_sink;
  ]
