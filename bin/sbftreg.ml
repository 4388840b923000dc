(* sbftreg — command-line driver for the stabilizing BFT register
   (`sbftreg --help` lists the subcommands).  The subcommands only parse
   flags, print and pick exit codes (see the README's table); what they
   run lives in Sbft_harness. *)

open Cmdliner
module Scenario = Sbft_harness.Scenario
module Kv_session = Sbft_harness.Kv_session
module Fuzz = Sbft_harness.Fuzz
module Shrink = Sbft_harness.Shrink
module Fault_plan = Sbft_byz.Fault_plan
module Run_header = Sbft_analysis.Run_header
module Trace_file = Sbft_analysis.Trace_file
module Replay = Sbft_analysis.Replay
module Causality = Sbft_analysis.Causality
module Corpus = Sbft_analysis.Corpus
module Spans = Sbft_analysis.Spans
module Diff = Sbft_analysis.Diff

(* ------------------------------------------------------------------ *)
(* shared helpers and flags *)

let outcome_str = function
  | Sbft_spec.History.Value v -> Printf.sprintf "value %d" v
  | Sbft_spec.History.Abort -> "abort"
  | Sbft_spec.History.Incomplete -> "incomplete"

(* Bad input or an unreadable artifact: one line naming it, exit 1. *)
let ok_or_exit = function
  | Ok x -> x
  | Error e ->
      prerr_endline e;
      exit 1

let check_flag ok msg = if not ok then ok_or_exit (Error msg)

(* A count flag: [name] must be at least [min]. *)
let check_count name ~min v =
  check_flag (v >= min) (Printf.sprintf "%s must be at least %d (got %d)" name min v)

(* The f Byzantine servers are among the n; the rest of the rule
   (n > 3f) is the one a scenario's topology obeys. *)
let check_topology ~n ~f =
  check_flag (n >= 1) (Printf.sprintf "-n must be at least 1 (got %d)" n);
  check_flag (f >= 0 && f <= n) (Printf.sprintf "-f must lie in [0, %d] (got %d)" n f);
  ok_or_exit (Scenario.validate { Scenario.default with n; f })

let open_out_or_die path =
  try open_out path
  with Sys_error e ->
    Printf.eprintf "cannot open %s: %s\n" path e;
    exit 1

(* Fail on a bad output path before a run burns its budget; the
   artifact itself is written once the run is over. *)
let writable path = close_out (open_out_or_die path)

let fingerprint () = try Digest.to_hex (Digest.file Sys.executable_name) with Sys_error _ -> ""

let endpoint_name ~n i = if i < n then Printf.sprintf "s%d" i else Printf.sprintf "c%d" i

(* The one-line `sbftreg run` invocation reproducing a scenario — what
   a fuzz finding or shrunk counterexample prints so it can be pasted
   straight into a shell or a bug report. *)
let repro_invocation (s : Scenario.t) =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf "sbftreg run -n %d -f %d --clients %d --seed %Ld --ops %d --write-ratio %g"
       s.n s.f s.clients s.seed s.ops_per_client s.write_ratio);
  if s.delay <> Run_header.default_delay_policy then
    Buffer.add_string b (Printf.sprintf " --delay %s" s.delay);
  Option.iter (fun st -> Buffer.add_string b (Printf.sprintf " --byzantine %s" st)) s.strategy;
  if s.corrupt then Buffer.add_string b " --corrupt";
  if s.plan <> [] then
    Buffer.add_string b (Printf.sprintf " --plan '%s'" (Fault_plan.to_string s.plan));
  Buffer.contents b

(* Execute a scenario at the full trace level and record it as a
   replayable artifact: how fuzz findings, corpus entries and shrunk
   reproducers reach the disk. *)
let record_scenario ~path ~note s =
  match Scenario.execute s with
  | Error e ->
      Printf.eprintf "%s: %s\n" (Filename.basename path) e;
      false
  | Ok r ->
      Printf.printf "wrote %s (%s)\n" path
        (Scenario.record ~path ~fingerprint:(fingerprint ()) ~note ~trace_level:Sbft_sim.Trace.On
           s r);
      true

(* A trace artifact's run header and the replay check of it; a trace
   without a header, or one naming no runnable scenario, is bad input. *)
let replay_trace path ~no_header =
  match ok_or_exit (Trace_file.load path) with
  | { header = None; _ } ->
      Printf.eprintf "%s: no run header — %s\n" path no_header;
      exit 1
  | { header = Some h; events } ->
      (h, ok_or_exit (Result.map_error (( ^ ) (path ^ ": ")) (Scenario.replay h events)))

let plan_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Fault_plan.of_string s) in
  let print fmt p = Format.pp_print_string fmt (Fault_plan.to_string p) in
  Arg.conv (parse, print)

let delay_arg =
  let names = List.map fst Scenario.policies in
  Arg.(
    value
    & opt (enum (List.map (fun n -> (n, n)) names)) Run_header.default_delay_policy
    & info [ "delay" ] ~docv:"POLICY"
        ~doc:(Printf.sprintf "Delay policy: %s." (String.concat ", " names)))

let trace_level_arg =
  let levels =
    List.map (fun l -> (Sbft_sim.Trace.level_to_string l, l)) Sbft_sim.Trace.levels
  in
  Arg.(
    value
    & opt (enum levels) Sbft_sim.Trace.On
    & info [ "trace-level" ] ~docv:"LEVEL"
        ~doc:
          "Trace dial: off (zero-overhead), sampled (whole span trees of a deterministic \
           subset of operations), on (full stream). Never affects the simulation itself.")

let sample_arg =
  Arg.(
    value
    & opt float 0.01
    & info [ "sample" ] ~docv:"RATE"
        ~doc:
          "Sampling rate for --trace-level sampled: the share of operations traced whole \
           (deterministic given the sample seed).")

let profile_arg =
  Arg.(
    value
    & flag
    & info [ "profile" ]
        ~doc:
          "Arm the engine self-profiler: per-phase self-time (delivery, server/client steps, \
           checker, telemetry) and top event kinds, printed as a table and embedded in \
           --metrics-out.")

let trace_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc:"Trace artifact.")

let progress_arg =
  Arg.(
    value
    & flag
    & info [ "progress" ]
        ~doc:
          "Print periodic heartbeat lines to stderr (wall-clock paced, plain text — safe for \
           TTYs and captured logs).")

(* ------------------------------------------------------------------ *)
(* run *)

let run_cmd =
  let go n f clients seed ops write_ratio strategy corrupt delay plan trace_cap snapshot_every
      note trace_out metrics_out level sample profile progress =
    let scenario =
      {
        Scenario.n;
        f;
        clients;
        seed;
        ops_per_client = ops;
        write_ratio;
        strategy;
        corrupt;
        delay;
        plan;
        trace_cap;
        snapshot_every;
      }
    in
    Option.iter writable trace_out;
    Option.iter writable metrics_out;
    let heartbeat = ref None in
    let on_system sys =
      if progress then begin
        let engine = Sbft_core.System.engine sys in
        let history = Sbft_core.System.history sys in
        let started = Sbft_harness.Clock.now_ns () in
        let last_fault = Fault_plan.last_at plan in
        let render () =
          let ops_list = Sbft_spec.History.ops history in
          let total = List.length ops_list in
          let completed =
            List.length
              (List.filter
                 (function
                   | Sbft_spec.History.Write { resp = Some _; _ }
                   | Sbft_spec.History.Read { resp = Some _; _ } ->
                       true
                   | _ -> false)
                 ops_list)
          in
          let elapsed = Sbft_harness.Clock.elapsed_s started in
          let rate = if elapsed > 0.0 then float_of_int completed /. elapsed else 0.0 in
          Printf.sprintf "ops %d/%d done, %.0f ops/s, in-flight msgs=%d, faults %s" completed
            total rate
            (Sbft_channel.Network.in_flight (Sbft_core.System.network sys))
            (if Sbft_sim.Engine.now engine >= last_fault then "quiet" else "injecting")
        in
        heartbeat := Some (Sbft_harness.Progress.attach engine render)
      end
    in
    let r = ok_or_exit (Scenario.execute ~level ~sample ~profile ~on_system scenario) in
    Option.iter Sbft_harness.Progress.finish !heartbeat;
    let o = r.outcome and reg = r.reg in
    Printf.printf "issued %d writes, %d reads over %d virtual ticks%s\n" o.issued_writes
      o.issued_reads o.wall_ticks
      (if o.livelocked then " (LIVELOCKED)" else "");
    Printf.printf "completed: %d writes, %d reads (%d aborted)\n" (reg.completed_writes ())
      (reg.completed_reads ()) (reg.aborted_reads ());
    let violations = List.length r.report.violations in
    Printf.printf "regularity (after first write at t=%s): %d checked, %d violations\n"
      (if r.after = max_int then "-" else string_of_int r.after)
      r.report.checked_reads violations;
    List.iter
      (fun (v : Sbft_spec.Regularity.violation) -> Printf.printf "  VIOLATION: %s\n" v.detail)
      r.report.violations;
    let engine = Sbft_core.System.engine r.sys in
    if r.report.violations <> [] then
      print_string
        (Sbft_harness.Forensics.dump_string ~name:(endpoint_name ~n)
           ~events:(Scenario.forensic_events ~level scenario r)
           ~history:(Sbft_core.System.history r.sys) r.report.violations);
    let w, rd = reg.op_latencies () in
    let pp what s =
      Printf.printf "%s latency: %s\n" what
        (Format.asprintf "%a" Sbft_harness.Stats.pp_summary s)
    in
    pp "write" (Sbft_harness.Stats.summarize w);
    pp "read" (Sbft_harness.Stats.summarize rd);
    if corrupt then
      Format.printf "%a@." Sbft_harness.Stabilization.pp (Scenario.stabilization scenario r);
    let profile =
      if profile then Some (Sbft_sim.Profile.report (Sbft_sim.Engine.profile engine)) else None
    in
    Option.iter (fun rep -> Format.printf "%a@." Sbft_sim.Profile.pp rep) profile;
    Option.iter
      (fun path ->
        let verdict =
          Scenario.record ~path ~fingerprint:(fingerprint ()) ~note ~trace_level:level scenario r
        in
        Printf.printf "wrote %s (%d events, verdict %s)\n" path (List.length r.events) verdict)
      trace_out;
    Option.iter
      (fun path ->
        Sbft_harness.Artifacts.write_file ~path (Scenario.metrics_json scenario r ~profile);
        Printf.printf "wrote %s\n" path)
      metrics_out;
    if violations > 0 then exit 2
  in
  let n = Arg.(value & opt int 6 & info [ "n" ] ~doc:"Number of servers.") in
  let f = Arg.(value & opt int 1 & info [ "f" ] ~doc:"Byzantine bound.") in
  let clients = Arg.(value & opt int 4 & info [ "clients" ] ~doc:"Client endpoints.") in
  let seed = Arg.(value & opt int64 42L & info [ "seed" ] ~doc:"PRNG seed.") in
  let ops = Arg.(value & opt int 25 & info [ "ops" ] ~doc:"Operations per client.") in
  let wr = Arg.(value & opt float 0.3 & info [ "write-ratio" ] ~doc:"Write probability.") in
  let strat =
    Arg.(value & opt (some string) None & info [ "byzantine" ] ~doc:"Byzantine strategy for f servers.")
  in
  let corrupt = Arg.(value & flag & info [ "corrupt" ] ~doc:"Corrupt all state and channels at t=0.") in
  let plan =
    Arg.(
      value
      & opt plan_conv []
      & info [ "plan" ] ~docv:"SPEC"
          ~doc:
            "Fault timeline: comma-separated at:kind[:args] events, e.g. \
             '120:byz:4:equivocate,300:heal:4,400:corrupt-channels:0.2'. Kinds: corrupt-server, \
             corrupt-client, corrupt-channels, corrupt-all, byz, heal, crash, slow-node, \
             slow-channel, partition, heal-partition.")
  in
  let trace_cap =
    Arg.(
      value
      & opt int 4096
      & info [ "trace-cap" ] ~docv:"N"
          ~doc:
            "Events a violation's forensic dump keeps: the last N of the full stream (re-run \
             at --trace-level on when the run traced less).")
  in
  let snapshot_every =
    Arg.(
      value
      & opt int 50
      & info [ "snapshot-every" ] ~docv:"TICKS"
          ~doc:"Period of per-server state snapshots for convergence telemetry; 0 disables.")
  in
  let note =
    Arg.(
      value
      & opt string ""
      & info [ "note" ] ~docv:"TEXT"
          ~doc:
            "Free-form provenance recorded in the trace header (e.g. which lemma a regression \
             corpus entry exercises).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Write the typed event trace to FILE as JSONL (header line first).")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write a JSON metrics snapshot (counters, per-phase latency histograms with \
             p50/p95/p99, per-node traffic, stabilization verdict, convergence telemetry) to FILE.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Simulate a workload and audit it against MWMR regularity")
    Term.(
      const go $ n $ f $ clients $ seed $ ops $ wr $ strat $ corrupt $ delay_arg $ plan
      $ trace_cap $ snapshot_every $ note $ trace_out $ metrics_out $ trace_level_arg
      $ sample_arg $ profile_arg $ progress_arg)

(* ------------------------------------------------------------------ *)
(* replay *)

let replay_cmd =
  let go path progress profile =
    (* Replay must be byte-comparable with the recording: heartbeats
       and profiler output would interleave with the diff, and the
       recorder's run didn't have them either.  Accept the flags (so a
       copy-pasted run command line works) but suppress them. *)
    if progress || profile then
      Printf.eprintf "note: --progress/--profile are suppressed during replay to keep the output \
                      byte-comparable\n";
    let h, c =
      replay_trace path ~no_header:"re-record with --trace-out to get a replayable trace"
    in
    Format.printf "%a@." Run_header.pp h;
    if h.schema <> Run_header.schema_version then
      Printf.eprintf "warning: artifact schema v%d, this binary expects v%d\n" h.schema
        Run_header.schema_version;
    let fp = fingerprint () in
    if Replay.fingerprint_mismatch ~header:h ~fingerprint:fp then
      Printf.eprintf
        "warning: binary fingerprint %s differs from the recorder's %s — a divergence below \
         may be a code change, not nondeterminism\n"
        (String.sub fp 0 12)
        (String.sub h.fingerprint 0 12);
    if h.trace_level = "sampled" then
      Printf.printf "sampled artifact: checking subsequence containment, not equality\n";
    Format.printf "%a@." Replay.pp_verdict c.stream;
    if h.verdict <> "" then
      Printf.printf "verdict: recorded %s, replayed %s\n" h.verdict
        (Scenario.verdict_to_string c.verdict);
    if (not c.verdict_ok) || c.stream.divergence <> None then exit 2
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-execute the run recorded in a trace artifact's header and report the first event \
          where the fresh execution diverges from the recording (exit 2 on divergence)")
    Term.(const go $ trace_arg $ progress_arg $ profile_arg)

(* ------------------------------------------------------------------ *)
(* analyze *)

let analyze_cmd =
  let go path focus dot_out list_ops =
    let { Trace_file.header; events } = ok_or_exit (Trace_file.load path) in
    let name =
      match header with
      | Some h -> endpoint_name ~n:h.n
      | None -> fun i -> Printf.sprintf "n%d" i
    in
    Option.iter (fun h -> Format.printf "%a@.@." Run_header.pp h) header;
    let g = Causality.build events in
    if list_ops then begin
      Printf.printf "operations: %s\n"
        (String.concat ", " (List.map string_of_int (Causality.op_ids g)));
      exit 0
    end;
    let g, what =
      match focus with
      | Some op -> (Causality.cone g ~op_id:op, Printf.sprintf "causal cone of op %d" op)
      | None -> (g, "full trace")
    in
    if Array.length g.nodes = 0 then begin
      Printf.eprintf "no events match%s\n"
        (match focus with Some op -> Printf.sprintf " op %d" op | None -> "");
      exit 1
    end;
    Printf.printf "%s: %d events, %d edges, %d lifelines\n\n" what (Array.length g.nodes)
      (List.length g.edges)
      (List.length (Causality.locations g));
    print_string (Causality.ascii ~name g);
    Option.iter
      (fun p ->
        let oc = open_out_or_die p in
        output_string oc (Causality.to_dot ~name g);
        close_out oc;
        Printf.printf "\nwrote %s\n" p)
      dot_out
  in
  let focus =
    let parse s =
      let s = match String.index_opt s ':' with Some i -> String.sub s (i + 1) (String.length s - i - 1) | None -> s in
      match int_of_string_opt s with
      | Some op -> Ok (Some op)
      | None -> Error (`Msg "expected op:<id> or <id>")
    in
    let print fmt = function Some op -> Format.fprintf fmt "op:%d" op | None -> () in
    Arg.(
      value
      & opt (conv (parse, print)) None
      & info [ "focus" ] ~docv:"op:ID"
          ~doc:"Slice to the causal cone of one operation (its causes and effects).")
  in
  let dot_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE" ~doc:"Also write the graph as GraphViz DOT to FILE.")
  in
  let list_ops =
    Arg.(value & flag & info [ "ops" ] ~doc:"Just list the operation ids present in the trace.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Reconstruct the happened-before graph of a trace artifact (program order + message \
          deliveries) and render it as an ASCII space-time diagram and optionally DOT")
    Term.(const go $ trace_arg $ focus $ dot_out $ list_ops)

(* ------------------------------------------------------------------ *)
(* spans *)

let spans_cmd =
  let go path json_out top focus by_shard min_cov =
    check_count "--top" ~min:0 top;
    (* a floor above 1 is unsatisfiable and fails loudly (exit 3); nan
       would pass every op, since no comparison with it holds *)
    check_flag
      (Float.is_finite min_cov && min_cov >= 0.0)
      (Printf.sprintf "--min-coverage must be a finite fraction, at least 0 (got %g)" min_cov);
    let { Trace_file.header; events } = ok_or_exit (Trace_file.load path) in
    Option.iter (fun h -> Format.printf "%a@.@." Run_header.pp h) header;
    let ops = Spans.build events in
    if ops = [] then begin
      Printf.eprintf
        "%s: no spans — record with --trace-level on (or sampled) on a binary that stamps \
         span ids\n"
        path;
      exit 1
    end;
    (match focus with
    | Some sp -> (
        match List.find_opt (fun (o : Spans.op) -> o.span = sp) ops with
        | Some o -> Format.printf "%a@." Spans.pp_waterfall o
        | None ->
            Printf.eprintf "no span %d in %s\n" sp path;
            exit 1)
    | None ->
        let finished = List.filter (fun (o : Spans.op) -> o.total <> None) ops in
        Printf.printf "%d spans (%d finished ops)\n\n" (List.length ops)
          (List.length finished);
        List.iter
          (fun r -> Format.printf "%a@." Spans.pp_agg_row r)
          (Spans.aggregate ~by_shard ops);
        let slowest =
          List.sort
            (fun (a : Spans.op) b -> compare (Option.get b.total) (Option.get a.total))
            finished
        in
        List.iter
          (fun o -> Format.printf "@.%a@." Spans.pp_waterfall o)
          (List.filteri (fun i _ -> i < top) slowest));
    Option.iter
      (fun path ->
        writable path;
        Sbft_harness.Artifacts.write_file ~path (Spans.to_json ops);
        Printf.printf "\nwrote %s\n" path)
      json_out;
    let worst =
      List.fold_left
        (fun acc (o : Spans.op) ->
          if o.total = None then acc else Float.min acc (Spans.coverage o))
        1.0 ops
    in
    if worst < min_cov then begin
      Printf.eprintf "coverage floor violated: worst op attributes %.1f%% < %.1f%%\n"
        (worst *. 100.) (min_cov *. 100.);
      exit 3
    end
  in
  let json_out =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE" ~doc:"Write the span trees as JSON to FILE.")
  in
  let top =
    Arg.(value & opt int 1 & info [ "top" ] ~docv:"K" ~doc:"Waterfalls of the K slowest ops.")
  in
  let focus =
    Arg.(value & opt (some int) None
         & info [ "span" ] ~docv:"ID" ~doc:"Show only the waterfall of span ID.")
  in
  let by_shard =
    Arg.(value & flag & info [ "by-shard" ] ~doc:"Group the aggregate table by kv shard.")
  in
  let min_cov =
    Arg.(value & opt float 0.0
         & info [ "min-coverage" ] ~docv:"F"
             ~doc:"Exit 3 if any finished op attributes less than fraction F of its latency.")
  in
  Cmd.v
    (Cmd.info "spans"
       ~doc:
         "Assemble per-operation span trees from a trace artifact, extract each operation's \
          critical path (dispatch / network / server service / quorum wait per phase), and print \
          phase-attributed latency percentiles plus waterfalls of the slowest operations")
    Term.(const go $ trace_arg $ json_out $ top $ focus $ by_shard $ min_cov)

(* ------------------------------------------------------------------ *)
(* diff *)

let diff_cmd =
  let go a b tolerance full =
    let tolerance = ok_or_exit (Diff.tolerance tolerance) in
    let load path = ok_or_exit (Sbft_sim.Json.of_file path) in
    let rep = Diff.compare ~tolerance (load a) (load b) in
    Format.printf "%a@." (if full then Diff.pp_full else Diff.pp) rep;
    if rep.worst = Diff.Fail then exit 2
  in
  let a = Arg.(required & pos 0 (some file) None & info [] ~docv:"A" ~doc:"Baseline artifact.") in
  let b = Arg.(required & pos 1 (some file) None & info [] ~docv:"B" ~doc:"Candidate artifact.") in
  let tolerance =
    Arg.(
      value
      & opt float 0.2
      & info [ "tolerance" ] ~docv:"REL"
          ~doc:"Relative difference within which a metric is OK (3x = warn, beyond = fail).")
  in
  let full = Arg.(value & flag & info [ "full" ] ~doc:"Print every compared metric, not just flagged ones.") in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two JSON artifacts number by number (every numeric leaf outside lists and the \
          wall-clock profile) with threshold verdicts (exit 2 when any metric fails)")
    Term.(const go $ a $ b $ tolerance $ full)

(* ------------------------------------------------------------------ *)
(* experiment *)

let experiment_cmd =
  let go id csv html metrics_out progress =
    Option.iter writable metrics_out;
    let started = Sbft_harness.Clock.now_ns () in
    (* Experiments are opaque closures, so the heartbeat here is
       per-table rather than per-event: one line when a table starts
       and one when it lands, stamped with wall-clock elapsed — enough
       to watch a long `experiment all` from a log tail. *)
    let timed name f =
      if progress then
        Printf.eprintf "[progress +%.1fs] %s: running...\n%!"
          (Sbft_harness.Clock.elapsed_s started) name;
      let t = f () in
      if progress then
        Printf.eprintf "[progress +%.1fs] %s: done (%d rows)\n%!"
          (Sbft_harness.Clock.elapsed_s started)
          (t : Sbft_harness.Table.t).id (List.length t.rows);
      t
    in
    let ids =
      match String.lowercase_ascii id with "all" -> Sbft_harness.Experiments.ids | id -> [ id ]
    in
    let tables =
      List.map
        (fun id ->
          match Sbft_harness.Experiments.by_id id with
          | Some f -> timed id f
          | None ->
              Printf.eprintf "unknown experiment %S; known: all, %s\n" id
                (String.concat ", " Sbft_harness.Experiments.ids);
              exit 1)
        ids
    in
    List.iter
      (fun t ->
        Sbft_harness.Table.print t;
        if csv then print_string (Sbft_harness.Table.to_csv t))
      tables;
    (match html with
    | Some path ->
        Sbft_harness.Report.write_file ~path
          ~title:"Stabilizing BFT Storage - experiments"
          ~preamble:
            "Reproduction of Bonomi, Potop-Butucaru &amp; Tixeuil, \
             <em>Stabilizing Byzantine-Fault Tolerant Storage</em> (IPPS 2015). See EXPERIMENTS.md \
             for the paper-vs-measured discussion."
          tables;
        Printf.printf "wrote %s\n" path
    | None -> ());
    Option.iter
      (fun path ->
        let module J = Sbft_sim.Json in
        (* when E5 ran, attach the convergence curves behind its table *)
        let telemetry =
          if List.exists (fun (t : Sbft_harness.Table.t) -> t.id = "E5") tables then
            [ ("stabilization_telemetry", Sbft_harness.Experiments.stabilization_telemetry ()) ]
          else []
        in
        Sbft_harness.Artifacts.write_file ~path
          (J.Obj (("tables", J.List (List.map Sbft_harness.Table.to_json tables)) :: telemetry));
        Printf.printf "wrote %s\n" path)
      metrics_out
  in
  let id =
    let doc =
      Printf.sprintf "Experiment id (%s) or all." (String.concat ", " Sbft_harness.Experiments.ids)
    in
    Arg.(value & pos 0 string "all" & info [] ~docv:"ID" ~doc)
  in
  let csv = Arg.(value & flag & info [ "csv" ] ~doc:"Also print CSV.") in
  let html =
    Arg.(value & opt (some string) None & info [ "html" ] ~docv:"FILE" ~doc:"Write an HTML report.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE" ~doc:"Write the result tables to FILE as JSON.")
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate an experiment table from DESIGN.md's index")
    Term.(const go $ id $ csv $ html $ metrics_out $ progress_arg)

(* ------------------------------------------------------------------ *)
(* attack *)

let attack_cmd =
  let go n f seed =
    check_topology ~n ~f;
    Format.printf "TM_1R multiset argument:@.";
    List.iter
      (fun d -> Format.printf "  %a@." Sbft_byz.Theorem1.pp_decision (Sbft_byz.Theorem1.run_decision d))
      Sbft_byz.Theorem1.decisions;
    Format.printf "@.Concrete schedule against the real protocol:@.";
    Format.printf "  %a@." Sbft_byz.Theorem1.pp_protocol (Sbft_byz.Theorem1.run_protocol ~n ~f ~seed)
  in
  let n = Arg.(value & opt int 5 & info [ "n" ] ~doc:"Servers (5f shows the violation).") in
  let f = Arg.(value & opt int 1 & info [ "f" ] ~doc:"Byzantine bound.") in
  let seed = Arg.(value & opt int64 5L & info [ "seed" ] ~doc:"PRNG seed.") in
  Cmd.v
    (Cmd.info "attack" ~doc:"Replay the Theorem 1 lower-bound schedule")
    Term.(const go $ n $ f $ seed)

(* ------------------------------------------------------------------ *)
(* labels *)

let labels_cmd =
  let go k trials =
    check_flag (k >= 2) (Printf.sprintf "-k must be at least 2 (got %d)" k);
    check_count "--trials" ~min:0 trials;
    let sys = Sbft_labels.Sbls.system ~k in
    Format.printf "k = %d, universe = %d stings, label size = %d bits@." k
      (k * k + 1)
      (Sbft_labels.Sbls.size_bits sys);
    let l0 = Sbft_labels.Sbls.initial sys in
    let l1 = Sbft_labels.Sbls.next sys [ l0 ] in
    Format.printf "initial:     %a@." Sbft_labels.Sbls.pp l0;
    Format.printf "next [l0]:   %a   (l0 < l1: %b)@." Sbft_labels.Sbls.pp l1
      (Sbft_labels.Sbls.prec l0 l1);
    Format.printf "domination over %d random corrupted input sets: %d failures@." trials
      (Sbft_harness.Experiments.domination_failures ~k ~seed:1L ~trials)
  in
  let k = Arg.(value & opt int 6 & info [ "k" ] ~doc:"Labeling parameter.") in
  let trials = Arg.(value & opt int 100_000 & info [ "trials" ] ~doc:"Random trials.") in
  Cmd.v
    (Cmd.info "labels" ~doc:"Inspect the k-stabilizing bounded labeling system")
    Term.(const go $ k $ trials)

(* ------------------------------------------------------------------ *)
(* trace *)

let trace_cmd =
  let go seed =
    let r = Sbft_harness.Flow.figure4 ~seed in
    Printf.printf "read -> %s\n\n" (outcome_str r.outcome);
    print_string r.write_projection;
    print_newline ();
    print_string r.read_projection;
    Printf.printf "\nmessage counters:\n";
    List.iter (fun (k, v) -> Printf.printf "  %-24s %d\n" k v) r.counters
  in
  let seed = Arg.(value & opt int64 42L & info [ "seed" ] ~doc:"PRNG seed.") in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run one write/read cycle and print each operation's Figure-4 projection (the client's \
          lifeline of sends and deliveries) plus message counters")
    Term.(const go $ seed)

(* ------------------------------------------------------------------ *)
(* explore *)

let explore_cmd =
  let go n f seeds ops =
    check_topology ~n ~f;
    check_count "--seeds" ~min:1 seeds;
    check_count "--ops" ~min:0 ops;
    let s = Sbft_harness.Explorer.explore ~n ~f ~seeds ~ops_per_client:ops () in
    Format.printf "%a@." Sbft_harness.Explorer.pp_summary s;
    if s.failures <> [] then exit 2
  in
  let n = Arg.(value & opt int 6 & info [ "n" ] ~doc:"Servers.") in
  let f = Arg.(value & opt int 1 & info [ "f" ] ~doc:"Byzantine bound.") in
  let seeds = Arg.(value & opt int 5 & info [ "seeds" ] ~doc:"Seeds per grid point.") in
  let ops = Arg.(value & opt int 12 & info [ "ops" ] ~doc:"Operations per client per run.") in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Sweep schedules (seeds x delay policies x adversaries x corruption) hunting for \
          counterexamples; exits non-zero if any run violates the spec")
    Term.(const go $ n $ f $ seeds $ ops)

(* ------------------------------------------------------------------ *)
(* storm *)

let storm_cmd =
  let go n f seed waves every verbose =
    let s = ok_or_exit (Sbft_harness.Experiments.storm_session ~n ~f ~seed ~waves ~every) in
    if verbose then Format.printf "fault timeline:@.%a@." Fault_plan.pp s.plan;
    Format.printf "%a@." Sbft_harness.Experiments.pp_storm s;
    if not s.ok then exit 2
  in
  let n = Arg.(value & opt int 6 & info [ "n" ] ~doc:"Servers.") in
  let f = Arg.(value & opt int 1 & info [ "f" ] ~doc:"Byzantine bound.") in
  let seed = Arg.(value & opt int64 8L & info [ "seed" ] ~doc:"PRNG seed.") in
  let waves = Arg.(value & opt int 6 & info [ "waves" ] ~doc:"Fault waves.") in
  let every = Arg.(value & opt int 250 & info [ "every" ] ~doc:"Ticks between waves.") in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the fault timeline.") in
  Cmd.v
    (Cmd.info "storm"
       ~doc:
         "Run a monitored workload through a random fault storm (corruption + Byzantine \
          takeovers with healing) and report the live invariant checks — one seed of \
          experiment E19")
    Term.(const go $ n $ f $ seed $ waves $ every $ verbose)

(* ------------------------------------------------------------------ *)
(* kv *)

(* The flags [kv] and [watch] share, as a session spec. *)
let kv_spec_term =
  let d = Kv_session.default in
  let shards = Arg.(value & opt int d.shards & info [ "shards" ] ~doc:"Replica groups.") in
  let n = Arg.(value & opt int d.n & info [ "n" ] ~doc:"Servers per shard.") in
  let f = Arg.(value & opt int d.f & info [ "f" ] ~doc:"Byzantine bound per shard.") in
  let seed = Arg.(value & opt int64 d.seed & info [ "seed" ] ~doc:"PRNG seed.") in
  let keys = Arg.(value & opt int d.keys & info [ "keys" ] ~doc:"Distinct keys.") in
  let ops = Arg.(value & opt int d.ops & info [ "ops" ] ~doc:"Operations per client.") in
  let clients =
    Arg.(value & opt int d.clients & info [ "clients" ] ~doc:"Logical store clients.")
  in
  let doom =
    Arg.(
      value
      & flag
      & info [ "doom" ] ~doc:"Destroy one shard mid-run (Byzantine takeover + heavy corruption).")
  in
  let fault_at =
    Arg.(
      value
      & opt (some int) d.fault_at
      & info [ "fault-at" ] ~docv:"T"
          ~doc:
            "Inject transient heavy corruption into the first $(b,--fault-shards) shards T \
             ticks into the session; the stabilization detector measures recovery from this \
             instant.")
  in
  let fault_shards =
    Arg.(
      value
      & opt int d.fault_shards
      & info [ "fault-shards" ] ~docv:"N" ~doc:"Shards hit by $(b,--fault-at) (from shard 0).")
  in
  let zipf =
    Arg.(
      value
      & opt float d.zipf
      & info [ "zipf" ] ~docv:"S" ~doc:"Zipf skew exponent for key popularity (0 = uniform).")
  in
  let window =
    Arg.(
      value
      & opt int d.window
      & info [ "window" ] ~docv:"TICKS"
          ~doc:
            "Tumbling-window width of the streaming per-shard series in virtual ticks (0 turns \
             the series and the anomaly alerts off; the stabilization detector then falls back \
             to 50-tick windows).")
  in
  let stab_k =
    Arg.(
      value
      & opt int d.stab_k
      & info [ "stab-k" ] ~docv:"K"
          ~doc:"Consecutive clean windows required to declare a shard stabilized.")
  in
  let slo_p99 =
    Arg.(
      value
      & opt float d.slo.p99_ticks
      & info [ "slo-p99" ] ~docv:"TICKS" ~doc:"Per-shard p99 latency target in virtual ticks.")
  in
  let slo_budget =
    Arg.(
      value
      & opt float d.slo.error_budget
      & info [ "slo-error-budget" ] ~docv:"FRAC"
          ~doc:"Allowed fraction of operations going bad (aborted reads).")
  in
  let spec shards n f seed keys ops clients doom fault_at fault_shards zipf window stab_k p99_ticks
      error_budget =
    {
      d with
      shards;
      n;
      f;
      seed;
      keys;
      ops;
      clients;
      doom;
      fault_at;
      fault_shards;
      zipf;
      window;
      stab_k;
      slo = { p99_ticks; error_budget };
    }
  in
  Term.(
    const spec $ shards $ n $ f $ seed $ keys $ ops $ clients $ doom $ fault_at $ fault_shards
    $ zipf $ window $ stab_k $ slo_p99 $ slo_budget)

let print_faults (s : Kv_session.session) =
  Option.iter
    (fun (shard, at) ->
      Printf.printf "shard %d will suffer Byzantine takeover + corruption at t=%d\n" shard at)
    s.doomed;
  Option.iter
    (fun (hit, at) ->
      Printf.printf "%d shard%s will suffer transient heavy corruption at t=%d\n" hit
        (if hit = 1 then "" else "s")
        at)
    s.faulted

let print_workload (o : Kv_session.outcome) =
  let livelocked b = if b then " [LIVELOCKED: event budget exhausted]" else "" in
  match o.workload with
  | Closed w ->
      Printf.printf "%d puts, %d gets (%d aborted)%s; audit: %d reads checked, %d violations\n"
        w.issued_puts w.issued_gets w.aborted_gets (livelocked w.kv_livelocked) o.checked
        o.violations
  | Open (_, lo) ->
      Printf.printf
        "offered %d, accepted %d, rejected %d; completed %d (%d puts, %d gets, %d aborted)%s; \
         audit: %d reads checked, %d violations\n"
        lo.offered lo.accepted lo.rejected lo.completed lo.completed_puts lo.completed_gets
        lo.aborted (livelocked lo.livelocked) o.checked o.violations;
      Format.printf "%a@." Sbft_harness.Loadgen.pp lo

let kv_cmd =
  let go spec trace_level sample profile progress arrival duration mix total_ops max_queue
      metrics_out trace_out =
    let spec =
      {
        spec with
        Kv_session.trace_level;
        sample;
        profile;
        arrival;
        duration;
        mix;
        total_ops;
        max_queue;
      }
    in
    let trace_oc = ref None and heartbeat = ref None in
    let on_store store =
      let engine = Sbft_kv.Store.engine store in
      Option.iter
        (fun path ->
          let oc = open_out_or_die path in
          Sbft_sim.Trace.add_sink (Sbft_sim.Engine.trace engine) (Sbft_sim.Trace.jsonl_sink oc);
          trace_oc := Some (path, oc))
        trace_out;
      Option.iter writable metrics_out;
      if progress then begin
        let started = Sbft_harness.Clock.now_ns () in
        heartbeat :=
          Some
            (Sbft_harness.Progress.attach engine (fun () ->
                 let issued = Sbft_kv.Store.ops_issued store in
                 let elapsed = Sbft_harness.Clock.elapsed_s started in
                 let rate = if elapsed > 0.0 then float_of_int issued /. elapsed else 0.0 in
                 let slo =
                   Sbft_harness.Slo.evaluate ~target:spec.slo ~shards:spec.shards
                     (Sbft_sim.Engine.metrics engine)
                 in
                 let worst =
                   List.fold_left
                     (fun acc (s : Sbft_harness.Slo.shard) -> Float.max acc s.worst_p99)
                     0.0 slo.shards
                 in
                 Printf.sprintf "ops issued=%d, %.0f ops/s, worst shard p99=%.0f ticks, slo %s"
                   issued rate worst
                   (if slo.ok then "ok" else "MISS")))
      end
    in
    let o = ok_or_exit (Kv_session.run ~on_store ~on_start:print_faults spec) in
    Option.iter Sbft_harness.Progress.finish !heartbeat;
    print_workload o;
    Format.printf "%a@." Sbft_kv.Store.pp_stats o.session.store;
    Format.printf "%a@." Sbft_harness.Slo.pp o.slo;
    Format.printf "%a@." Sbft_harness.Stabilization.pp o.session.stabilization;
    Option.iter (fun a -> Format.printf "%a@." Sbft_harness.Alerts.pp a) o.session.alerts;
    Option.iter (fun rep -> Format.printf "%a@." Sbft_sim.Profile.pp rep) o.profile;
    Option.iter
      (fun path ->
        Sbft_harness.Artifacts.write_file ~path (Kv_session.metrics_json spec o);
        Printf.printf "wrote %s\n" path)
      metrics_out;
    Option.iter
      (fun (path, oc) ->
        close_out oc;
        Printf.printf "wrote %s\n" path)
      !trace_oc;
    if o.violations > 0 || not o.slo.ok then exit 2
  in
  let d = Kv_session.default in
  (* "poisson:RATE" | "const:RATE" | "ramp:A..B", parsed by Loadgen *)
  let arrival_conv =
    let parse s =
      Result.map_error
        (fun e -> `Msg (Sbft_harness.Loadgen.error_to_string e))
        (Sbft_harness.Loadgen.arrival_of_string s)
    in
    let print fmt a = Format.pp_print_string fmt (Sbft_harness.Loadgen.arrival_to_string a) in
    Arg.conv (parse, print)
  in
  let arrival =
    Arg.(
      value
      & opt (some arrival_conv) d.arrival
      & info [ "arrival" ] ~docv:"PROCESS"
          ~doc:
            "Drive the store open-loop: simulated requests arrive by this seeded rate process \
             (ops per virtual tick) independent of completions, flow through per-shard \
             admission queues and are dispatched to free clients.  One of \
             $(b,poisson:RATE), $(b,const:RATE) or $(b,ramp:A..B) (instantaneous rate \
             sweeping linearly from A to B over the run).  Without this flag the classic \
             closed-loop driver runs.")
  in
  (* "R:W" read/write weights, e.g. 70:30, as a write ratio *)
  let mix_conv =
    let parse s =
      let fail () = Error (`Msg (Printf.sprintf "invalid mix %S (expected R:W, e.g. 70:30)" s)) in
      match String.index_opt s ':' with
      | None -> fail ()
      | Some i -> (
          let r = String.sub s 0 i and w = String.sub s (i + 1) (String.length s - i - 1) in
          match (float_of_string_opt r, float_of_string_opt w) with
          | Some r, Some w when r >= 0.0 && w >= 0.0 && r +. w > 0.0 -> Ok (w /. (r +. w))
          | _ -> fail ())
    in
    let print fmt ratio = Format.fprintf fmt "%g:%g" (100.0 *. (1.0 -. ratio)) (100.0 *. ratio) in
    Arg.conv (parse, print)
  in
  let mix =
    Arg.(
      value
      & opt mix_conv d.mix
      & info [ "mix" ] ~docv:"R:W"
          ~doc:
            "Read/write weights for the open-loop mix, e.g. $(b,95:5) for a YCSB-B-style \
             read-heavy workload.")
  in
  let duration =
    Arg.(
      value
      & opt int d.duration
      & info [ "duration" ] ~docv:"TICKS"
          ~doc:"Arrival-generation span in virtual ticks (open loop only).")
  in
  let total_ops =
    Arg.(
      value
      & opt (some int) d.total_ops
      & info [ "total-ops" ] ~docv:"N"
          ~doc:
            "Stop generating after exactly N offered arrivals, even if $(b,--duration) has not \
             elapsed (open loop only) — pins the op count of a scale run.")
  in
  let max_queue =
    Arg.(
      value
      & opt int d.max_queue
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Per-shard admission-queue capacity; arrivals beyond it are rejected (counted, not \
             queued).")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write a JSON metrics snapshot (per-shard counters/histograms with p50/p95/p99, \
             streaming series windows, online stabilization verdicts, alerts, SLO verdicts, \
             optional profile) to FILE.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Stream the event trace as JSONL to FILE (no run header — kv traces feed $(b,spans) \
             and $(b,analyze), not $(b,replay)).")
  in
  Cmd.v
    (Cmd.info "kv"
       ~doc:
         "Run a Zipfian session against the sharded key-value store with streaming per-shard \
          series and an online stabilization detector, audit it and gate per-shard SLOs (exit 2 \
          on a violation or SLO miss).  With $(b,--arrival) the session is open-loop: requests \
          arrive by a seeded rate process independent of completions, per-shard admission \
          queues absorb (or shed) the excess, and end-to-end latency including queue wait \
          gates the SLO.")
    Term.(
      const go $ kv_spec_term $ trace_level_arg $ sample_arg $ profile_arg $ progress_arg
      $ arrival $ duration $ mix $ total_ops $ max_queue $ metrics_out $ trace_out)

(* ------------------------------------------------------------------ *)
(* watch *)

let watch_cmd =
  let go spec every_s ansi =
    check_flag (every_s >= 0.0) (Printf.sprintf "--every must be at least 0 (got %g)" every_s);
    (* the dashboard draws the series, so --window 0 means 50 here *)
    let spec =
      {
        spec with
        Kv_session.trace_level = Sbft_sim.Trace.Off;
        window = (if spec.Kv_session.window = 0 then 50 else spec.window);
      }
    in
    let heartbeat = ref None in
    let on_start (s : Kv_session.session) =
      print_faults s;
      let dash =
        Sbft_harness.Dashboard.create ~stabilization:s.stabilization ?alerts:s.alerts s.store
      in
      heartbeat :=
        Some
          (Sbft_harness.Progress.attach ~every_s ~out:stdout (Sbft_kv.Store.engine s.store)
             (fun () ->
               (if ansi then "\027[2J\027[H" else "") ^ "\n" ^ Sbft_harness.Dashboard.render dash))
    in
    let o = ok_or_exit (Kv_session.run ~on_store:ignore ~on_start spec) in
    Option.iter Sbft_harness.Progress.finish !heartbeat;
    print_workload o;
    Format.printf "%a@." Sbft_harness.Stabilization.pp o.session.stabilization;
    Option.iter (fun a -> Format.printf "%a@." Sbft_harness.Alerts.pp a) o.session.alerts;
    if o.violations > 0 then exit 2
  in
  let every_s =
    Arg.(
      value
      & opt float 2.0
      & info [ "every" ] ~docv:"SECONDS"
          ~doc:"Minimum wall-clock spacing between dashboard frames (0 = every poll).")
  in
  let ansi =
    Arg.(
      value
      & flag
      & info [ "ansi" ]
          ~doc:
            "Clear the screen before each frame (live-TTY mode); without it frames append, \
             which is what captured logs and CI want.")
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:
         "Run a kv session and watch it live: a wall-clock-paced ASCII dashboard of per-shard \
          abort-rate sparklines, the fleet rollup, stabilization verdicts and active alerts \
          (exit 2 on an audit violation)")
    Term.(const go $ kv_spec_term $ every_s $ ansi)

(* ------------------------------------------------------------------ *)
(* report *)

let report_cmd =
  let go metrics_path html_path title =
    Sbft_harness.Report.write_series_report ~path:html_path ?title
      (ok_or_exit (Sbft_sim.Json.of_file metrics_path));
    Printf.printf "wrote %s\n" html_path
  in
  let metrics =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"METRICS" ~doc:"A kv $(b,--metrics-out) artifact.")
  in
  let html =
    Arg.(
      value & opt string "report.html" & info [ "html" ] ~docv:"FILE" ~doc:"Output HTML path.")
  in
  let title =
    Arg.(value & opt (some string) None & info [ "title" ] ~docv:"TITLE" ~doc:"Page title.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render a kv metrics artifact's streaming blocks (per-shard sparklines, stabilization \
          markers, alert log) into a standalone HTML page")
    Term.(const go $ metrics $ html $ title)

(* ------------------------------------------------------------------ *)
(* fuzz *)

let budget_conv =
  let parse s =
    let scale, num =
      if Filename.check_suffix s "ms" then (0.001, Filename.chop_suffix s "ms")
      else if Filename.check_suffix s "s" then (1.0, Filename.chop_suffix s "s")
      else (1.0, s)
    in
    match float_of_string_opt num with
    | Some v when v > 0. -> Ok (v *. scale)
    | _ -> Error (`Msg "expected a duration like 30s or 500ms")
  in
  Arg.conv (parse, fun fmt b -> Format.fprintf fmt "%gs" b)

let fuzz_cmd =
  (* (note, scenario) pairs become DIR/<prefix>-000.trace, ... *)
  let save ~prefix entries dir =
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    List.iteri
      (fun i (note, s) ->
        let name = Printf.sprintf "%s-%03d.trace" prefix i in
        ignore (record_scenario ~path:(Filename.concat dir name) ~note s))
      entries
  in
  let go n f clients ops wr delay seed iters budget max_findings quiet save_dir corpus_dir domains =
    check_flag (domains >= 1) "--domains must be >= 1";
    check_count "--iters" ~min:0 iters;
    check_count "--max-findings" ~min:1 max_findings;
    let base =
      { Scenario.default with n; f; clients; ops_per_client = ops; write_ratio = wr; delay }
    in
    ok_or_exit (Scenario.validate base);
    let log = if quiet then fun _ -> () else fun line -> Printf.printf "  %s\n%!" line in
    let findings, corpus =
      if domains = 1 then begin
        let report =
          Fuzz.run ~base ~iterations:iters ?budget_s:budget ~max_findings ~log ~seed ()
        in
        Format.printf "%a@." Fuzz.pp_report report;
        (report.findings, report.corpus)
      end
      else begin
        let p =
          Fuzz.run_parallel ~base ~iterations:iters ?budget_s:budget ~max_findings ~log ~domains
            ~seed ()
        in
        Format.printf "%a@." Fuzz.pp_parallel_report p;
        (List.map snd p.merged_findings, p.merged_corpus)
      end
    in
    Option.iter
      (save ~prefix:"finding"
         (List.map
            (fun (fd : Fuzz.finding) ->
              (Printf.sprintf "fuzz campaign seed=%Ld step=%d" seed fd.step, fd.scenario))
            findings))
      save_dir;
    (* Retained corpus entries become replayable artifacts too, so
       `sbftreg corpus DIR` proves every entry replays to the same
       verdict, regardless of how many domains retained it. *)
    Option.iter
      (save ~prefix:"corpus"
         (List.mapi
            (fun i s ->
              (Printf.sprintf "fuzz corpus seed=%Ld domains=%d entry=%d" seed domains i, s))
            corpus))
      corpus_dir;
    List.iter
      (fun (fd : Fuzz.finding) ->
        Printf.printf "repro [%s]: %s\n"
          (Scenario.verdict_to_string fd.verdict)
          (repro_invocation fd.scenario))
      findings;
    if findings <> [] then exit 2
  in
  let n = Arg.(value & opt int 6 & info [ "n" ] ~doc:"Servers (try 5 to watch n > 5f fail).") in
  let f = Arg.(value & opt int 1 & info [ "f" ] ~doc:"Byzantine bound.") in
  let clients = Arg.(value & opt int 3 & info [ "clients" ] ~doc:"Client endpoints in the base scenario.") in
  let ops = Arg.(value & opt int 12 & info [ "ops" ] ~doc:"Operations per client in the base scenario.") in
  let wr = Arg.(value & opt float 0.3 & info [ "write-ratio" ] ~doc:"Base write probability.") in
  let seed = Arg.(value & opt int64 1L & info [ "seed" ] ~doc:"Campaign PRNG seed (the campaign is deterministic given this).") in
  let iters = Arg.(value & opt int 200 & info [ "iters" ] ~doc:"Mutation steps.") in
  let budget =
    Arg.(
      value
      & opt (some budget_conv) None
      & info [ "budget" ] ~docv:"DURATION"
          ~doc:
            "Stop after this much wall-clock time (e.g. 30s, 500ms). Only ever truncates the \
             deterministic step sequence early; per-step behaviour never depends on the clock.")
  in
  let max_findings =
    Arg.(value & opt int 10 & info [ "max-findings" ] ~doc:"Stop after this many findings.")
  in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress per-step progress lines.") in
  let save_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"DIR"
          ~doc:"Save each finding as a replayable trace artifact (verdict in the header) in DIR.")
  in
  let corpus_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-corpus" ] ~docv:"DIR"
          ~doc:
            "Save every retained corpus entry (merged across domains) as a replayable trace \
             artifact in DIR; `sbftreg corpus DIR` then asserts each replays to the recorded \
             verdict.")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Fan the campaign out across N OCaml domains, one independent deterministic campaign \
             per domain (domain 0 uses --seed verbatim, so N=1 is exactly the single-threaded \
             campaign; each extra domain runs a full --iters campaign at a derived seed). The \
             merged corpus equals the union of the per-domain corpora.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Coverage-guided schedule fuzzing: mutate whole scenarios (seed, delay policy, workload \
          mix, Byzantine strategy, fault timeline), keep mutants that reach new trace coverage, \
          and report every run whose verdict is not ok (exit 2 when any finding surfaces)")
    Term.(
      const go $ n $ f $ clients $ ops $ wr $ delay_arg $ seed $ iters $ budget $ max_findings
      $ quiet $ save_dir $ corpus_dir $ domains)

(* ------------------------------------------------------------------ *)
(* shrink *)

let shrink_cmd =
  let go path out max_execs verbose =
    check_count "--max-execs" ~min:0 max_execs;
    let h, c = replay_trace path ~no_header:"nothing to shrink" in
    if c.verdict = Scenario.Pass then begin
      Printf.eprintf "%s: verdict is ok — nothing to shrink\n" path;
      exit 1
    end;
    Printf.printf "target verdict: %s\n" (Scenario.verdict_to_string c.verdict);
    let log = if verbose then fun line -> Printf.printf "  %s\n%!" line else fun _ -> () in
    let res = Shrink.shrink ~max_executions:max_execs ~log ~target:c.verdict c.scenario in
    Format.printf "%a@." Shrink.pp_result res;
    let out =
      match out with Some o -> o | None -> Filename.remove_extension path ^ ".min.trace"
    in
    let note =
      if h.note <> "" then h.note else Printf.sprintf "shrunk from %s" (Filename.basename path)
    in
    if not (record_scenario ~path:out ~note res.scenario) then exit 1;
    Printf.printf "repro: %s\n" (repro_invocation res.scenario)
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc:"Failing trace artifact.") in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Where to write the minimized artifact (default: TRACE with a .min.trace suffix).")
  in
  let max_execs =
    Arg.(value & opt int 400 & info [ "max-execs" ] ~doc:"Candidate-execution budget.")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print each accepted shrink step.") in
  Cmd.v
    (Cmd.info "shrink"
       ~doc:
         "Greedily minimize the failing scenario recorded in a trace artifact — fewer fault-plan \
          events, fewer operations, fewer clients — re-executing each candidate and keeping only \
          changes that preserve the verdict; writes the minimal reproducer as a fresh artifact \
          and prints the one-line run invocation")
    Term.(const go $ path $ out $ max_execs $ verbose)

(* ------------------------------------------------------------------ *)
(* corpus *)

let corpus_cmd =
  let go dir =
    match ok_or_exit (Corpus.load_dir dir) with
    | [] ->
        Printf.eprintf "%s: empty corpus\n" dir;
        exit 1
    | entries ->
        (* An entry must record a verdict and reproduce it; recorded
           events, when present, must replay bit-for-bit — the same
           determinism contract as `sbftreg replay`.  An entry whose
           header names no runnable scenario is bad input. *)
        let judge (e : Corpus.entry) =
          if e.header.verdict = "" then `Fail "header records no verdict"
          else
            match Scenario.replay e.header e.events with
            | Error msg -> `Bad msg
            | Ok c when not c.verdict_ok ->
                `Fail
                  (Printf.sprintf "verdict %s, header says %s"
                     (Scenario.verdict_to_string c.verdict)
                     e.header.verdict)
            | Ok { stream = { divergence = Some d; _ }; _ } when e.events <> [] ->
                `Fail (Printf.sprintf "event stream diverges at %d" d.index)
            | Ok _ -> `Ok
        in
        let results =
          List.map
            (fun (e : Corpus.entry) ->
              let name = Filename.basename e.path in
              let r = judge e in
              (match r with
              | `Bad msg | `Fail msg -> Printf.printf "FAIL %-32s %s\n" name msg
              | `Ok -> Printf.printf "ok   %-32s %-16s %s\n" name e.header.verdict e.header.note);
              r)
            entries
        in
        let failures = List.length (List.filter (fun r -> r <> `Ok) results) in
        Printf.printf "%d entries, %d failures\n" (List.length entries) failures;
        if List.exists (function `Bad _ -> true | _ -> false) results then exit 1;
        if failures > 0 then exit 2
  in
  let dir = Arg.(required & pos 0 (some dir) None & info [] ~docv:"DIR" ~doc:"Corpus directory.") in
  Cmd.v
    (Cmd.info "corpus"
       ~doc:
         "Replay every regression-corpus entry in a directory and assert that each reproduces \
          the checker verdict recorded in its header (exit 2 on any mismatch)")
    Term.(const go $ dir)

(* ------------------------------------------------------------------ *)
(* bench *)

let bench_cmd =
  let go () =
    let module B = Sbft_harness.Benchmarks in
    let rows = B.run () in
    List.iter (Format.printf "%a@." B.pp_row) rows;
    let over = List.filter B.over_budget rows in
    if over <> [] then begin
      Printf.eprintf "%d ratio(s) past budget\n" (List.length over);
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Time three within-run ratios over seven rounds (series on vs off, open vs closed loop, \
          checker sweep vs scan) and exit 1 when three quarters of a row's rounds are past its \
          budget")
    Term.(const go $ const ())

let () =
  let doc = "stabilizing Byzantine-fault-tolerant MWMR regular register (IPPS 2015 reproduction)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "sbftreg" ~doc)
          [
            run_cmd;
            replay_cmd;
            analyze_cmd;
            spans_cmd;
            diff_cmd;
            experiment_cmd;
            attack_cmd;
            labels_cmd;
            trace_cmd;
            explore_cmd;
            fuzz_cmd;
            shrink_cmd;
            corpus_cmd;
            storm_cmd;
            kv_cmd;
            watch_cmd;
            report_cmd;
            bench_cmd;
          ]))
