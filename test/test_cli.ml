(* End-to-end tests of the sbftreg executable: diff threshold exit
   codes, the replay fingerprint warning and verdict regression check,
   corpus replay, and the fuzz -> save -> shrink -> replay loop.  The
   binary is a declared dune dependency living at ../bin relative to
   the test cwd (_build/default/test). *)

let exe = "../bin/sbftreg.exe"

let sh fmt = Printf.ksprintf Sys.command fmt

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let replace_once s ~sub ~by =
  let ls = String.length s and lsub = String.length sub in
  let rec find i =
    if i + lsub > ls then None
    else if String.sub s i lsub = sub then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> s
  | Some i -> String.sub s 0 i ^ by ^ String.sub s (i + lsub) (ls - i - lsub)

let temp name ext = Filename.temp_file ("sbftcli_" ^ name) ext

let temp_dir name =
  let d = Filename.temp_file ("sbftcli_" ^ name) "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let check_exit msg expected code = Alcotest.(check int) msg expected code

(* The JSON artifact at [path] with the numbers at the dotted [paths]
   multiplied by [k]. *)
let scaled k paths path =
  let module J = Sbft_sim.Json in
  let rec go prefix (j : J.t) : J.t =
    match j with
    | Obj kvs ->
        let under key = if prefix = "" then key else prefix ^ "." ^ key in
        Obj (List.map (fun (key, v) -> (key, go (under key) v)) kvs)
    | Int i when List.mem prefix paths -> Int (int_of_float (float_of_int i *. k))
    | Float f when List.mem prefix paths -> Float (f *. k)
    | j -> j
  in
  J.to_string (go "" (Result.get_ok (J.of_file path)))

(* diff: identical artifacts exit 0; a warn-range drift exits 0 but is
   printed; a beyond-3x drift exits 2 and names each failing path with
   the difference it gated on; a metric on one side only is printed but
   does not fail; a nan tolerance or an unreadable artifact (here a
   directory) is a typed error naming it, exit 1. *)
let test_diff_exit_codes () =
  let m = temp "metrics" ".json" in
  check_exit "run produces metrics" 0
    (sh "%s run -n 6 --clients 2 --ops 6 --seed 7 --metrics-out %s >/dev/null 2>&1" exe m);
  check_exit "self diff is clean" 0 (sh "%s diff %s %s >/dev/null 2>&1" exe m m);
  let a = temp "base" ".json" and b = temp "cand" ".json" in
  write_file a {|{"counters":{"x":100},"kv":{"retired":1}}|};
  write_file b {|{"counters":{"x":140}}|};
  let out = temp "diffout" ".txt" in
  let printed needle =
    let o = read_file out in
    replace_once o ~sub:needle ~by:"" <> o
  in
  check_exit "warn-range drift (and a GONE metric) still exits 0" 0
    (sh "%s diff %s %s > %s 2>&1" exe a b out);
  Alcotest.(check bool) "warn is reported" true (printed "WARN counters.x");
  Alcotest.(check bool) "metric only in the baseline printed as GONE" true
    (printed "GONE kv.retired");
  write_file b {|{"counters":{"x":500}}|};
  check_exit "beyond 3x tolerance exits 2" 2 (sh "%s diff %s %s >/dev/null 2>&1" exe a b);
  check_exit "wider tolerance accepts the same pair" 0
    (sh "%s diff %s %s --tolerance 2.0 >/dev/null 2>&1" exe a b);
  (* the committed kv artifact with two published numbers scaled, at the
     CI gates' 10% tolerance: x1.5 is 33.3% apart and fails, x1.2 is
     16.7% apart and warns *)
  let kv = "../bench/sample-kv-metrics.json" in
  let paths = [ "run.events_fired"; "histograms.kv.shard.0.get_ticks.sum" ] in
  let copy k =
    let f = temp "kvscaled" ".json" in
    write_file f (scaled k paths kv);
    f
  in
  check_exit "x1.5 on two kv numbers exits 2" 2
    (sh "%s diff %s %s --tolerance 0.1 > %s 2>&1" exe kv (copy 1.5) out);
  List.iter
    (fun p ->
      let line =
        List.find_opt
          (fun l -> replace_once l ~sub:("FAIL " ^ p ^ " ") ~by:"" <> l)
          (String.split_on_char '\n' (read_file out))
      in
      Alcotest.(check bool) (p ^ " fails at 33.3%") true
        (match line with Some l -> String.ends_with ~suffix:"33.3%" l | None -> false))
    paths;
  check_exit "x1.2 on two kv numbers exits 0" 0
    (sh "%s diff %s %s --tolerance 0.1 > %s 2>&1" exe kv (copy 1.2) out);
  List.iter (fun p -> Alcotest.(check bool) (p ^ " warns") true (printed ("WARN " ^ p))) paths;
  check_exit "nan tolerance exits 1" 1 (sh "%s diff %s %s --tolerance nan > %s 2>&1" exe a b out);
  Alcotest.(check bool) "the error names the flag" true (printed "--tolerance");
  let dir = temp_dir "diffdir" in
  check_exit "a directory artifact exits 1" 1 (sh "%s diff %s %s > %s 2>&1" exe dir b out);
  Alcotest.(check bool) "the error names the directory" true
    (printed dir && not (printed "exception"))

(* replay: a clean round trip is silent; a foreign fingerprint warns
   but still replays; a flipped verdict is a regression (exit 2). *)
let test_replay_fingerprint_and_verdict () =
  let t = temp "trace" ".trace" in
  check_exit "record a trace" 0
    (sh "%s run -n 6 --clients 2 --ops 5 --seed 7 --trace-out %s >/dev/null 2>&1" exe t);
  let err = temp "replayerr" ".txt" in
  check_exit "clean replay exits 0" 0 (sh "%s replay %s >/dev/null 2>%s" exe t err);
  Alcotest.(check bool) "clean replay does not warn" true
    (read_file err = "");
  (* rewrite the recorded fingerprint to a foreign one *)
  let real_fp = Digest.to_hex (Digest.file exe) in
  let forged = temp "forged" ".trace" in
  write_file forged (replace_once (read_file t) ~sub:real_fp ~by:(String.make 32 'd'));
  check_exit "foreign fingerprint still replays" 0 (sh "%s replay %s >/dev/null 2>%s" exe forged err);
  Alcotest.(check bool) "fingerprint mismatch is warned about" true
    (let e = read_file err in
     replace_once e ~sub:"fingerprint" ~by:"" <> e);
  (* flip the recorded verdict: replay must flag the regression *)
  let flipped = temp "flipped" ".trace" in
  write_file flipped
    (replace_once (read_file t) ~sub:{|"verdict":"ok"|} ~by:{|"verdict":"violation:stale"|});
  check_exit "verdict mismatch exits 2" 2 (sh "%s replay %s >/dev/null 2>&1" exe flipped)

(* corpus: the committed corpus replays clean; an entry whose recorded
   verdict no longer reproduces fails the whole directory. *)
let test_corpus_exit_codes () =
  check_exit "committed corpus replays" 0 (sh "%s corpus corpus >/dev/null 2>&1" exe);
  let bad = temp_dir "corpus" in
  let source =
    Sys.readdir "corpus" |> Array.to_list
    |> List.find_map (fun f ->
           let s = read_file (Filename.concat "corpus" f) in
           let flipped = replace_once s ~sub:{|"verdict":"ok"|} ~by:{|"verdict":"violation:stale"|} in
           if flipped <> s then Some flipped else None)
  in
  (match source with
  | None -> Alcotest.fail "corpus has no passing entry to flip"
  | Some flipped -> write_file (Filename.concat bad "flipped.trace") flipped);
  check_exit "flipped verdict exits 2" 2 (sh "%s corpus %s >/dev/null 2>&1" exe bad)

(* Domain-parallel fuzzing end to end: the same seed and domain count
   must produce a byte-identical merged corpus run over run, and every
   retained entry must replay to its recorded verdict through the
   ordinary corpus machinery — the CLI half of the corpus-union
   property test_fuzz checks in-process. *)
let test_fuzz_domains_cli () =
  let run_campaign dir =
    sh "%s fuzz -n 6 --clients 3 --ops 8 --iters 12 --seed 11 --domains 2 --save-corpus %s -q >/dev/null 2>&1"
      exe dir
  in
  let d1 = temp_dir "domcorpus1" and d2 = temp_dir "domcorpus2" in
  check_exit "fuzz --domains 2 exits clean on the safe topology" 0 (run_campaign d1);
  check_exit "second identical campaign exits clean" 0 (run_campaign d2);
  let entries dir = Sys.readdir dir |> Array.to_list |> List.sort compare in
  let e1 = entries d1 and e2 = entries d2 in
  Alcotest.(check bool) "campaign retained corpus entries" true (e1 <> []);
  Alcotest.(check (list string)) "same entry set run over run" e1 e2;
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "%s byte-identical across runs" f)
        true
        (read_file (Filename.concat d1 f) = read_file (Filename.concat d2 f)))
    e1;
  check_exit "multi-domain corpus replays to recorded verdicts" 0
    (sh "%s corpus %s >/dev/null 2>&1" exe d1);
  check_exit "fuzz rejects --domains 0" 1
    (sh "%s fuzz -n 6 --clients 3 --ops 8 --iters 2 --seed 11 --domains 0 -q >/dev/null 2>&1" exe)

(* fuzz: the safe topology smoke-tests clean; the known-bad n = 5f
   topology yields a saved finding, which shrinks to a minimal trace
   that replays bit-for-bit. *)
let test_fuzz_smoke_and_shrink_loop () =
  check_exit "fuzz smoke on n=6 finds nothing" 0
    (sh "%s fuzz -n 6 --clients 3 --ops 8 --iters 5 --seed 5 -q >/dev/null 2>&1" exe);
  let dir = temp_dir "findings" in
  check_exit "fuzz on n=5f exits 2 with a finding" 2
    (sh "%s fuzz -n 5 --clients 3 --ops 12 --iters 400 --max-findings 1 --seed 3 --save %s -q >/dev/null 2>&1"
       exe dir);
  let finding =
    match Array.to_list (Sys.readdir dir) with
    | f :: _ -> Filename.concat dir f
    | [] -> Alcotest.fail "fuzz --save left no artifact"
  in
  let min_trace = temp "min" ".trace" in
  check_exit "shrink reproduces and minimizes" 0
    (sh "%s shrink %s --out %s >/dev/null 2>&1" exe finding min_trace);
  Alcotest.(check bool) "minimal artifact exists" true (Sys.file_exists min_trace);
  check_exit "minimal reproducer replays clean" 0 (sh "%s replay %s >/dev/null 2>&1" exe min_trace)

(* spans: a recorded trace yields span trees with full coverage; an
   impossible coverage floor exits 3; a span-free trace exits 1. *)
let test_spans_exit_codes () =
  let t = temp "spantrace" ".trace" in
  check_exit "record a trace" 0
    (sh "%s run -n 6 --clients 3 --ops 8 --seed 11 --trace-out %s >/dev/null 2>&1" exe t);
  let out = temp "spansout" ".txt" in
  check_exit "spans on a full trace exits 0" 0 (sh "%s spans %s > %s 2>&1" exe t out);
  Alcotest.(check bool) "waterfall rendered" true
    (let o = read_file out in
     replace_once o ~sub:"coverage" ~by:"" <> o);
  check_exit "95%% coverage floor holds on a full trace" 0
    (sh "%s spans %s --min-coverage 0.95 >/dev/null 2>&1" exe t);
  check_exit "impossible coverage floor exits 3" 3
    (sh "%s spans %s --min-coverage 1.01 >/dev/null 2>&1" exe t);
  let json = temp "spans" ".json" in
  check_exit "json export" 0 (sh "%s spans %s --json %s >/dev/null 2>&1" exe t json);
  Alcotest.(check bool) "json artifact mentions spans" true
    (let j = read_file json in
     replace_once j ~sub:{|"span"|} ~by:"" <> j);
  (* a trace with no span-bearing events: the header alone *)
  let empty = temp "headeronly" ".trace" in
  let header = List.hd (String.split_on_char '\n' (read_file t)) in
  write_file empty (header ^ "\n");
  check_exit "span-free trace exits 1" 1 (sh "%s spans %s >/dev/null 2>&1" exe empty)

(* kv -> report pipeline and the live dashboard: a faulted kv run
   writes a streaming artifact, report renders it to HTML, watch emits
   frames; bad inputs exit non-zero. *)
let test_watch_and_report_exit_codes () =
  let m = temp "kvmetrics" ".json" in
  check_exit "faulted kv run writes the artifact" 0
    (sh
       "%s kv --shards 8 --keys 32 --clients 6 --ops 25 --seed 5 --trace-level off --window 40 \
        --fault-at 200 --fault-shards 2 --slo-p99 100000 --slo-error-budget 1 --metrics-out %s \
        >/dev/null 2>&1"
       exe m);
  Alcotest.(check bool) "artifact carries the streaming blocks" true
    (let s = read_file m in
     replace_once s ~sub:{|"stabilization"|} ~by:"" <> s
     && replace_once s ~sub:{|"series"|} ~by:"" <> s
     && replace_once s ~sub:{|"alerts"|} ~by:"" <> s);
  let html = temp "kvreport" ".html" in
  check_exit "report renders the artifact" 0 (sh "%s report %s --html %s >/dev/null 2>&1" exe m html);
  Alcotest.(check bool) "page has sparkline svg and a stabilization marker" true
    (let s = read_file html in
     replace_once s ~sub:"<svg" ~by:"" <> s && replace_once s ~sub:"stabiliz" ~by:"" <> s);
  let garbage = temp "garbage" ".json" in
  write_file garbage "not json at all {";
  check_exit "report rejects a non-JSON artifact" 1
    (sh "%s report %s >/dev/null 2>&1" exe garbage);
  Alcotest.(check bool) "report rejects a missing file" true
    (sh "%s report %s.nope >/dev/null 2>&1" exe garbage <> 0);
  let out = temp "watch" ".txt" in
  check_exit "watch runs a faulted session" 0
    (sh
       "%s watch --shards 4 --keys 16 --clients 4 --ops 15 --seed 3 --window 40 --fault-at 150 \
        --every 0 > %s 2>&1"
       exe out);
  Alcotest.(check bool) "frames show shards, fleet and stabilization" true
    (let s = read_file out in
     replace_once s ~sub:"fleet" ~by:"" <> s && replace_once s ~sub:"stabilization" ~by:"" <> s)

(* open-loop kv: the --arrival/--mix/--duration/--total-ops surface, a
   deliberate overload that must miss the SLO (exit 2), typed spec
   errors (exit 1, no silent clamp) and trace-level invariance of the
   whole metrics artifact. *)
let test_kv_open_loop_cli () =
  let m = temp "lg" ".json" in
  check_exit "open-loop run under capacity exits 0" 0
    (sh
       "%s kv --shards 4 --clients 8 --keys 16 --seed 9 --trace-level off --window 40 \
        --arrival poisson:0.4 --duration 600 --mix 7:3 --max-queue 64 --slo-p99 100000 \
        --slo-error-budget 1 --metrics-out %s >/dev/null 2>&1"
       exe m);
  let s = read_file m in
  Alcotest.(check bool) "artifact carries the loadgen block" true
    (replace_once s ~sub:{|"loadgen"|} ~by:"" <> s
    && replace_once s ~sub:{|"offered"|} ~by:"" <> s
    && replace_once s ~sub:{|"arrival":"poisson:0.4"|} ~by:"" <> s);
  Alcotest.(check bool) "mix parsed as a write ratio" true
    (replace_once s ~sub:{|"mix_write_ratio":0.3|} ~by:"" <> s);
  Alcotest.(check bool) "per-shard e2e latency histograms recorded" true
    (replace_once s ~sub:{|kv.shard.0.e2e_ticks|} ~by:"" <> s);
  Alcotest.(check bool) "queue series ride the store's" true
    (replace_once s ~sub:{|"queue"|} ~by:"" <> s);
  (* --total-ops pins the offered count *)
  let m2 = temp "lgops" ".json" in
  check_exit "total-ops run exits 0" 0
    (sh
       "%s kv --shards 4 --clients 8 --keys 16 --seed 9 --trace-level off \
        --arrival const:0.5 --duration 100000 --total-ops 50 --slo-p99 100000 \
        --slo-error-budget 1 --metrics-out %s >/dev/null 2>&1"
       exe m2);
  Alcotest.(check bool) "exactly the pinned ops were offered" true
    (let s2 = read_file m2 in
     replace_once s2 ~sub:{|"offered":50|} ~by:"" <> s2);
  (* overload: queueing delay blows the e2e p99, the SLO verdict is a
     miss, and the exit code says so *)
  check_exit "overload past the knee exits 2" 2
    (sh
       "%s kv --shards 2 --clients 2 --keys 8 --seed 9 --trace-level off \
        --arrival const:2 --duration 400 >/dev/null 2>&1"
       exe);
  (* typed spec errors: loud exit 1, never a clamp *)
  check_exit "non-positive rate exits 1" 1
    (sh "%s kv --arrival const:-2 >/dev/null 2>&1" exe);
  check_exit "super-tick rate is unrepresentable, exits 1" 1
    (sh "%s kv --arrival poisson:999999 >/dev/null 2>&1" exe);
  (* the artifact is bit-identical across trace levels, up to the
     declared run.trace_level member *)
  let off = temp "lgoff" ".json" and on = temp "lgon" ".json" in
  let flags =
    "--shards 4 --clients 6 --keys 16 --seed 11 --window 40 --arrival poisson:0.6 \
     --duration 500 --slo-p99 100000 --slo-error-budget 1"
  in
  check_exit "trace-off run" 0
    (sh "%s kv %s --trace-level off --metrics-out %s >/dev/null 2>&1" exe flags off);
  check_exit "trace-on run" 0
    (sh "%s kv %s --trace-level on --metrics-out %s >/dev/null 2>&1" exe flags on);
  Alcotest.(check string) "artifacts agree at every trace level"
    (read_file off)
    (replace_once (read_file on) ~sub:{|"trace_level":"on"|} ~by:{|"trace_level":"off"|})

(* Hostile input: every flag or header field out of range exits 1
   with one line naming it — never an uncaught exception (exit 125), a
   silent clamp (exit 0) or an SLO miss (exit 2). *)
(* A window so wide that the first alert tick would be due past the
   last representable tick is never queued, so the session runs the
   same operations as at a narrow window.  A tick wrapped below the
   clock would fire ahead of everything and re-arm forever, and the
   session would burn its event budget with no operation run. *)
let test_kv_window_past_the_clock () =
  let first_line window =
    let out = temp "kvwindow" ".txt" in
    check_exit ("kv --window " ^ window ^ " exits 0") 0
      (sh "%s kv --window %s --trace-level off > %s 2>&1" exe window out);
    List.hd (String.split_on_char '\n' (read_file out))
  in
  Alcotest.(check string) "same puts and gets" (first_line "50")
    (first_line (string_of_int max_int))

let test_hostile_input () =
  let header_trace =
    let src = read_file (Filename.concat "corpus" "theorem1-n5-stale.trace") in
    let t = temp "clients0" ".trace" in
    write_file t (replace_once src ~sub:{|"clients":2|} ~by:{|"clients":0|});
    t
  in
  let corpus_dir =
    let d = temp_dir "corpus0" in
    write_file (Filename.concat d "clients0.trace") (read_file header_trace);
    d
  in
  let valid_trace = Filename.concat "corpus" "theorem1-n5-stale.trace" in
  let sample_trace = Filename.concat ".." (Filename.concat "bench" "sample-trace.jsonl") in
  let out = temp "hostile" ".txt" in
  List.iter
    (fun (args, names) ->
      let code = sh "%s %s > %s 2>&1" exe args out in
      let o = read_file out in
      Alcotest.(check int) (Printf.sprintf "`sbftreg %s` exits 1" args) 1 code;
      Alcotest.(check bool)
        (Printf.sprintf "`sbftreg %s` names %s" args names)
        true
        (replace_once o ~sub:names ~by:"" <> o);
      Alcotest.(check bool)
        (Printf.sprintf "`sbftreg %s` raises nothing" args)
        true
        (replace_once (String.lowercase_ascii o) ~sub:"exception" ~by:"" = String.lowercase_ascii o))
    [
      ("kv --shards 0", "--shards");
      ("kv --keys 0", "--keys");
      ("kv --stab-k 0", "--stab-k");
      ("kv -n 5 -f 1", "-n");
      ("kv --clients 0", "--clients");
      ("kv --clients=-3", "--clients");
      ("kv --fault-at 10 --fault-shards 0", "--fault-shards");
      ("kv --fault-at 10 --fault-shards 99", "--fault-shards");
      ("kv --window=-5", "--window");
      ("kv --ops=-3", "--ops");
      ("kv --arrival poisson:1 --total-ops=-3", "--total-ops");
      ("kv --slo-p99=-1", "--slo-p99");
      ("kv --slo-error-budget nan", "--slo-error-budget");
      ("watch --clients 0 --every 0", "--clients");
      ("run --clients 0", "--clients");
      ("run -n 0 -f 0", "-n");
      ("run -n 3 -f 1", "-n");
      ("fuzz -n 3 -f 1 --iters 1", "-n");
      ("explore -n 2 -f 1 --seeds 1", "-n");
      ("run --write-ratio 2", "--write-ratio");
      ("run --trace-cap 0", "--trace-cap");
      ("run --ops=-3", "--ops");
      ("fuzz --clients 0 --iters 1", "--clients");
      ("attack -n 0", "-n");
      ("attack -n 1 -f 3", "-f");
      ("explore -n 0", "-n");
      ("run --sample 2 --trace-level sampled", "--sample");
      ("labels -k 0", "-k");
      ("storm -n 5 -f 1", "-n");
      ("replay " ^ header_trace, "clients");
      ("shrink " ^ header_trace, "clients");
      ("corpus " ^ corpus_dir, "clients");
      ("explore --ops=-1", "--ops");
      ("explore --seeds=-1", "--seeds");
      ("labels --trials=-1", "--trials");
      ("fuzz --iters=-1", "--iters");
      ("fuzz --max-findings=-1 --iters 5", "--max-findings");
      ("shrink --max-execs=-1 " ^ valid_trace, "--max-execs");
      ("spans " ^ sample_trace ^ " --min-coverage nan", "--min-coverage");
      ("spans " ^ sample_trace ^ " --min-coverage=-0.5", "--min-coverage");
      ("spans " ^ sample_trace ^ " --top=-1", "--top");
      ("watch --every=-1", "--every");
    ]

let suite =
  [
    Alcotest.test_case "hostile input exits 1 naming the flag or field" `Quick test_hostile_input;
    Alcotest.test_case "kv: a window past the last tick runs the same ops" `Quick
      test_kv_window_past_the_clock;
    Alcotest.test_case "kv open loop: flags, overload exit, determinism" `Quick
      test_kv_open_loop_cli;
    Alcotest.test_case "watch/report exit codes and artifacts" `Quick
      test_watch_and_report_exit_codes;
    Alcotest.test_case "diff exit codes: ok / warn / fail" `Quick test_diff_exit_codes;
    Alcotest.test_case "spans exit codes and artifacts" `Quick test_spans_exit_codes;
    Alcotest.test_case "replay: fingerprint warning, verdict regression" `Quick
      test_replay_fingerprint_and_verdict;
    Alcotest.test_case "corpus directory exit codes" `Quick test_corpus_exit_codes;
    Alcotest.test_case "fuzz smoke and fuzz->shrink->replay loop" `Slow
      test_fuzz_smoke_and_shrink_loop;
    Alcotest.test_case "fuzz --domains: deterministic corpus, replayable" `Slow
      test_fuzz_domains_cli;
  ]
