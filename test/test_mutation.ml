(* A generated mutation tier over the ingest paths: committed artifacts,
   a trends run database, fault plans and arrival specs, truncated,
   byte-flipped, digit-flipped and cut, must come back as a typed
   result, never as an exception.  Every proper prefix of a JSON
   artifact must be an [Error]. *)

module J = Sbft_sim.Json
module Trace_file = Sbft_analysis.Trace_file
module Trends = Sbft_analysis.Trends

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Positions are drawn over all ints and taken modulo the length of the
   string they mutate; a digit flip's position counts only the string's
   digits. *)
type mutation = Truncate of int | Flip of int * char | Digit of int * char | Delete of int * int

let rec apply s m =
  let n = String.length s in
  if n = 0 then s
  else
    match m with
    | Truncate k -> String.sub s 0 (k mod n)
    | Flip (i, c) -> String.mapi (fun j b -> if j = i mod n then c else b) s
    | Digit (i, c) -> (
        match List.filter (fun j -> s.[j] >= '0' && s.[j] <= '9') (List.init n Fun.id) with
        | [] -> s
        | digits -> apply s (Flip (List.nth digits (i mod List.length digits), c)))
    | Delete (i, len) ->
        let i = i mod n in
        let len = min len (n - i) in
        String.sub s 0 i ^ String.sub s (i + len) (n - i - len)

(* One mutation of [base] per case.  A digit flip writes a digit or a
   minus sign over one of the base's digits: the number usually stays
   well-formed, so the mutant gets past the JSON layer to the range
   checks behind it (a header's n = 0, write_ratio = 5.3 or trace_cap =
   -96). *)
let mutated base =
  let open QCheck.Gen in
  let pos = int_bound (1 lsl 29) in
  let mutation =
    oneof
      [
        map (fun k -> Truncate k) pos;
        map2 (fun i c -> Flip (i, c)) pos char;
        map2 (fun i c -> Digit (i, c)) pos (oneof [ numeral; return '-' ]);
        map2 (fun i len -> Delete (i, len)) pos (int_range 1 64);
      ]
  in
  QCheck.make ~print:(Printf.sprintf "%S") (map (fun m -> apply (Lazy.force base) m) mutation)

(* Ok or Error both pass; an exception escapes and fails the property. *)
let typed = function Ok _ | Error _ -> true

let property ~name base check =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:1000 (mutated base) check)

(* The bases are read when a case first runs, from the test directory. *)
let sample_metrics = lazy (String.trim (read_file "../bench/sample-metrics.json"))

let trace_lines =
  lazy (String.split_on_char '\n' (String.trim (read_file "../bench/sample-trace.jsonl")))

let trace_header = lazy (List.hd (Lazy.force trace_lines))

(* The first two event lines of each kind, so the mutations meet every
   kind the sample holds. *)
let trace_events =
  lazy
    (let kind line = Option.bind (Result.to_option (J.of_string line)) (J.member "ev") in
     let keep (seen, acc) line =
       let k = kind line in
       let n = List.length (List.filter (( = ) k) seen) in
       (k :: seen, if n < 2 then line :: acc else acc)
     in
     let _, lines = List.fold_left keep ([], []) (List.tl (Lazy.force trace_lines)) in
     String.concat "\n" (List.rev lines))

let parse_trace text =
  match Trace_file.parse_lines (String.split_on_char '\n' text) with
  | Ok { header = Some h; _ } -> typed (Sbft_harness.Scenario.of_header h)
  | r -> typed r

(* [Trends.load_db] reads a file, so each database text goes through a
   temporary one. *)
let with_db text f =
  let db = Filename.temp_file "sbft-trends" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove db)
    (fun () ->
      Out_channel.with_open_bin db (fun oc -> output_string oc text);
      f db)

(* A two-run database that [Trends.append] writes from the sample
   metrics. *)
let trends_db =
  lazy
    (with_db "" (fun db ->
         let sample = Result.get_ok (J.of_string (Lazy.force sample_metrics)) in
         List.iter
           (fun label ->
             Result.get_ok (Trends.append ~db (Trends.of_json ~source:"sample-metrics.json" ~label sample)))
           [ "first"; "second" ];
         read_file db))

let load_db text = with_db text Trends.load_db

let plan =
  "0:corrupt-server:2:heavy,5:corrupt-client:6,10:corrupt-channels:0.25,20:corrupt-all:light,\
   120:byz:4:equivocate,300:heal:4,310:crash:7,320:slow-node:1:8,330:slow-channel:0:5:4,\
   350:partition:0.1.2|3.4.5.6.7,400:heal-partition"

let arrivals = "poisson:8,const:0.25,ramp:0.5..4"

(* Each base parses whole, so what the mutations find is theirs. *)
let test_bases () =
  let ok name r = Alcotest.(check bool) name true (Result.is_ok r) in
  let whole = Lazy.force sample_metrics and header = Lazy.force trace_header in
  ok "sample metrics" (J.of_string whole);
  (match Trace_file.parse_lines [ header ] with
  | Ok { header = Some h; _ } -> ok "sample header's scenario" (Sbft_harness.Scenario.of_header h)
  | _ -> Alcotest.fail "the sample trace's first line is not a header");
  ok "event lines" (Trace_file.parse_lines (String.split_on_char '\n' (Lazy.force trace_events)));
  (match load_db (Lazy.force trends_db) with
  | Ok runs -> Alcotest.(check int) "trends database runs" 2 (List.length runs)
  | Error e -> Alcotest.fail e);
  ok "fault plan" (Sbft_byz.Fault_plan.of_string plan);
  List.iter
    (fun spec -> ok spec (Sbft_harness.Loadgen.arrival_of_string spec))
    (String.split_on_char ',' arrivals);
  List.iter
    (fun s ->
      for k = 1 to String.length s - 1 do
        if Result.is_ok (J.of_string (String.sub s 0 k)) then
          Alcotest.failf "prefix of %d bytes parsed: %S" k (String.sub s 0 k)
      done)
    [ whole; header ]

let suite =
  [
    Alcotest.test_case "bases parse; every proper prefix of a JSON base is an Error" `Quick
      test_bases;
    property ~name:"json: mutated sample metrics never raise" sample_metrics (fun s ->
        typed (J.of_string s));
    property ~name:"trace_file: mutated header never raises, nor does of_header" trace_header
      parse_trace;
    property ~name:"trace_file: mutated event lines never raise" trace_events parse_trace;
    property ~name:"trends: a mutated run database never raises" trends_db (fun s ->
        typed (load_db s));
    property ~name:"fault_plan: mutated plans never raise" (lazy plan) (fun s ->
        typed (Sbft_byz.Fault_plan.of_string s));
    property ~name:"loadgen: mutated arrival specs never raise" (lazy arrivals) (fun s ->
        List.for_all
          (fun spec -> typed (Sbft_harness.Loadgen.arrival_of_string spec))
          (s :: String.split_on_char ',' s));
  ]
