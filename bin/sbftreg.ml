(* sbftreg — command-line driver for the stabilizing BFT register.

   Subcommands:
     run        simulate a workload and audit it against the spec
     replay     re-execute a recorded trace and diff the event streams
     analyze    reconstruct happened-before from a trace artifact
     spans      assemble per-operation span trees and critical paths
     trends     ingest run artifacts and flag cross-run metric drift
     diff       compare two metrics artifacts with tolerances
     experiment run one experiment table (or "all")
     attack     replay the Theorem 1 lower-bound schedule
     labels     poke at the bounded labeling system
     trace      run a tiny scenario with the event trace enabled
     explore    sweep the fixed schedule grid for counterexamples
     fuzz       coverage-guided mutation over whole scenarios
     shrink     minimize a failing trace to a one-line reproducer
     corpus     replay the committed regression corpus
     storm      random fault storms checked live by the monitor
     kv         Zipfian session against the sharded key-value store
     watch      kv session with a live ASCII dashboard
     report     render a kv metrics artifact as a standalone HTML page
     bench      hot-path throughput and the perf-regression gate *)

open Cmdliner
module Scenario = Sbft_harness.Scenario
module Fuzz = Sbft_harness.Fuzz
module Shrink = Sbft_harness.Shrink
module Fault_plan = Sbft_byz.Fault_plan
module Run_header = Sbft_analysis.Run_header
module Trace_file = Sbft_analysis.Trace_file
module Replay = Sbft_analysis.Replay
module Causality = Sbft_analysis.Causality
module Corpus = Sbft_analysis.Corpus
module Spans = Sbft_analysis.Spans
module Trends = Sbft_analysis.Trends

let outcome_str = function
  | Sbft_spec.History.Value v -> Printf.sprintf "value %d" v
  | Sbft_spec.History.Abort -> "abort"
  | Sbft_spec.History.Incomplete -> "incomplete"

(* ------------------------------------------------------------------ *)
(* run *)

let open_out_or_die path =
  try open_out path
  with Sys_error e ->
    Printf.eprintf "cannot open %s: %s\n" path e;
    exit 1

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
          "Trace dial: off (zero-overhead), sampled (deterministic subsequence to sinks, \
           forensic ring kept), on (full stream), forensic (also free-form notes). Never \
           affects the simulation itself.")

let sample_arg =
  Arg.(
    value
    & opt float 0.01
    & info [ "sample" ] ~docv:"RATE"
        ~doc:"Sampling rate for --trace-level sampled (deterministic given the sample seed).")

let profile_arg =
  Arg.(
    value
    & flag
    & info [ "profile" ]
        ~doc:
          "Arm the engine self-profiler: per-phase self-time (delivery, server/client steps, \
           checker, telemetry) and top event kinds, printed as a table and embedded in \
           --metrics-out.")

let progress_arg =
  Arg.(
    value
    & flag
    & info [ "progress" ]
        ~doc:
          "Print periodic heartbeat lines to stderr (wall-clock paced, plain text — safe for \
           TTYs and captured logs).")

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
    (* open both artifact files before the run: a bad path should fail
       here, not after the simulation has burned its budget (the trace
       itself is written after the run so its header can record the
       checker's verdict, making the artifact corpus-ready) *)
    Option.iter (fun path -> close_out (open_out_or_die path)) trace_out;
    let metrics_oc = Option.map (fun path -> (path, open_out_or_die path)) metrics_out in
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
    match Scenario.execute ~level ~sample ~profile ~on_system scenario with
    | Error msg ->
        Printf.eprintf "%s\n" msg;
        exit 1
    | Ok r ->
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
        let history = Sbft_core.System.history r.sys in
        let tr = Sbft_sim.Engine.trace (Sbft_core.System.engine r.sys) in
        if r.report.violations <> [] then
          print_string
            (Sbft_harness.Forensics.dump_string ~name:(endpoint_name ~n) ~trace:tr ~history
               r.report.violations);
        let w, rd = reg.op_latencies () in
        let pp what s =
          Printf.printf "%s latency: %s\n" what
            (Format.asprintf "%a" Sbft_harness.Stats.pp_summary s)
        in
        pp "write" (Sbft_harness.Stats.summarize w);
        pp "read" (Sbft_harness.Stats.summarize rd);
        (* A one-shard detector bank over the register's history: the
           telemetry window, clocked from the fault plan's last fault. *)
        let stab =
          Sbft_harness.Stabilization.of_history
            ~window:(if snapshot_every > 0 then snapshot_every else 50)
            ~after:r.last_fault history
        in
        Sbft_harness.Stabilization.finalize stab
          ~now:(Sbft_sim.Engine.now (Sbft_core.System.engine r.sys));
        if corrupt then Format.printf "%a@." Sbft_harness.Stabilization.pp stab;
        let profile_report =
          if profile then
            Some (Sbft_sim.Profile.report (Sbft_sim.Engine.profile (Sbft_core.System.engine r.sys)))
          else None
        in
        Option.iter (fun rep -> Format.printf "%a@." Sbft_sim.Profile.pp rep) profile_report;
        Option.iter
          (fun path ->
            let verdict = Scenario.verdict_to_string (Scenario.verdict_of_run r) in
            let header =
              Scenario.to_header ~fingerprint:(fingerprint ()) ~verdict ~note
                ~trace_level:(Sbft_sim.Trace.level_to_string level)
                scenario
            in
            Trace_file.save ~path ~header r.events;
            Printf.printf "wrote %s (%d events, verdict %s)\n" path (List.length r.events) verdict)
          trace_out;
        Option.iter
          (fun (path, oc) ->
            let module J = Sbft_sim.Json in
            let run =
              [
                ("cmd", J.String "run");
                ("n", J.Int n);
                ("f", J.Int f);
                ("clients", J.Int clients);
                ("seed", J.String (Int64.to_string seed));
                ("ops_per_client", J.Int ops);
                ("write_ratio", J.Float write_ratio);
                ("byzantine", match strategy with Some s -> J.String s | None -> J.Null);
                ("corrupt", J.Bool corrupt);
                ("wall_ticks", J.Int o.wall_ticks);
              ]
            in
            let stale_reads =
              List.map (fun (v : Sbft_spec.Regularity.violation) -> v.read_id) r.report.violations
            in
            output_string oc
              (J.to_string
                 (Sbft_harness.Artifacts.metrics_json ~run ~stabilization:stab
                    ~regularity:(r.report.checked_reads, violations)
                    ~telemetry:(Sbft_harness.Telemetry.to_json r.telemetry ~history ~stale_reads ())
                    ?profile:(Option.map Sbft_sim.Profile.to_json profile_report)
                    ~metrics:(Sbft_sim.Engine.metrics (Sbft_core.System.engine r.sys))
                    ~per_node:(Sbft_channel.Network.node_counters (Sbft_core.System.network r.sys))
                    ()));
            output_char oc '\n';
            close_out oc;
            Printf.printf "wrote %s\n" path)
          metrics_oc;
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
          ~doc:"Forensic event-ring capacity (sinks always see every event).")
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
    match Trace_file.load path with
    | Error msg ->
        Printf.eprintf "%s\n" msg;
        exit 1
    | Ok { header = None; _ } ->
        Printf.eprintf "%s: no run header — re-record with --trace-out to get a replayable trace\n"
          path;
        exit 1
    | Ok { header = Some h; events = expected } -> (
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
        match Result.bind (Scenario.of_header h) (fun s -> Scenario.execute s) with
        | Error msg ->
            Printf.eprintf "%s\n" msg;
            exit 1
        | Ok r ->
            let v = Replay.compare_for_level ~trace_level:h.trace_level ~expected ~got:r.events in
            if h.trace_level = "sampled" then
              Printf.printf "sampled artifact: checking subsequence containment, not equality\n";
            Format.printf "%a@." Replay.pp_verdict v;
            if h.verdict <> "" then begin
              let got = Scenario.verdict_to_string (Scenario.verdict_of_run r) in
              Printf.printf "verdict: recorded %s, replayed %s\n" h.verdict got;
              if got <> h.verdict then exit 2
            end;
            if v.divergence <> None then exit 2)
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc:"Trace artifact.") in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-execute the run recorded in a trace artifact's header and report the first event \
          where the fresh execution diverges from the recording (exit 2 on divergence)")
    Term.(const go $ path $ progress_arg $ profile_arg)

(* ------------------------------------------------------------------ *)
(* analyze *)

let analyze_cmd =
  let go path focus dot_out list_ops =
    match Trace_file.load path with
    | Error msg ->
        Printf.eprintf "%s\n" msg;
        exit 1
    | Ok { header; events } ->
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
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc:"Trace artifact.") in
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
    Term.(const go $ path $ focus $ dot_out $ list_ops)

(* ------------------------------------------------------------------ *)
(* spans *)

let spans_cmd =
  let go path json_out top focus by_shard min_cov =
    match Trace_file.load path with
    | Error msg ->
        Printf.eprintf "%s\n" msg;
        exit 1
    | Ok { header; events } ->
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
            let rec take n = function
              | [] -> []
              | _ when n = 0 -> []
              | x :: r -> x :: take (n - 1) r
            in
            List.iter
              (fun o -> Format.printf "@.%a@." Spans.pp_waterfall o)
              (take top slowest));
        Option.iter
          (fun p ->
            let oc = open_out_or_die p in
            output_string oc (Sbft_sim.Json.to_string (Spans.to_json ops));
            output_char oc '\n';
            close_out oc;
            Printf.printf "\nwrote %s\n" p)
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
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc:"Trace artifact.") in
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
    Term.(const go $ path $ json_out $ top $ focus $ by_shard $ min_cov)

(* ------------------------------------------------------------------ *)
(* trends *)

let trends_cmd =
  let go artifacts db tolerance full =
    let expand p =
      if Sys.is_directory p then
        Sys.readdir p |> Array.to_list |> List.sort compare
        |> List.filter (fun f -> Filename.check_suffix f ".json")
        |> List.map (Filename.concat p)
      else [ p ]
    in
    let files = List.concat_map expand artifacts in
    let runs =
      List.map
        (fun p ->
          match Trends.load_artifact p with
          | Ok r -> r
          | Error e ->
              Printf.eprintf "%s\n" e;
              exit 1)
        files
    in
    let history =
      match db with
      | Some db -> (
          List.iter (fun r -> Trends.append ~db r) runs;
          match Trends.load_db db with
          | Ok history -> history
          | Error e ->
              Printf.eprintf "%s\n" e;
              exit 1)
      | None -> runs
    in
    if full then
      List.iteri
        (fun i r ->
          Printf.printf "run %d: %s (%d metrics)\n" i r.Trends.source
            (List.length r.Trends.metrics))
        history;
    match Trends.latest_drift ~tolerance history with
    | None ->
        Printf.printf "%d run(s) on file — need two to compare\n" (List.length history)
    | Some (prev, cur, drifts) ->
        Printf.printf "comparing %s -> %s (tolerance %.0f%%)\n" prev.Trends.source
          cur.Trends.source (tolerance *. 100.);
        if drifts = [] then
          Printf.printf "no metric drifted beyond tolerance (%d compared)\n"
            (List.length
               (List.filter
                  (fun (k, _) -> List.mem_assoc k prev.Trends.metrics)
                  cur.Trends.metrics))
        else begin
          List.iter (fun d -> Format.printf "%a@." Trends.pp_drift d) drifts;
          Printf.eprintf "%d metric(s) drifted beyond %.0f%%\n" (List.length drifts)
            (tolerance *. 100.);
          exit 1
        end
  in
  let artifacts =
    Arg.(non_empty & pos_all file []
         & info [] ~docv:"ARTIFACT"
             ~doc:"Metrics/bench JSON artifacts (or directories of .json files), oldest first.")
  in
  let db =
    Arg.(value & opt (some string) None
         & info [ "db" ] ~docv:"FILE"
             ~doc:"Append the runs to this JSONL run database and compare its last two entries.")
  in
  let tolerance =
    Arg.(value & opt float 0.3
         & info [ "tolerance" ] ~docv:"T" ~doc:"Relative drift beyond which a metric flags.")
  in
  let full = Arg.(value & flag & info [ "full" ] ~doc:"List every run ingested.") in
  Cmd.v
    (Cmd.info "trends"
       ~doc:
         "Flatten run artifacts (metrics snapshots, bench reports) into an append-only run \
          database and compare the latest run against its predecessor, exiting non-zero when any \
          shared metric drifts beyond the tolerance")
    Term.(const go $ artifacts $ db $ tolerance $ full)

(* ------------------------------------------------------------------ *)
(* diff *)

let diff_cmd =
  let go a b tolerance full =
    let load path =
      match Sbft_sim.Json.of_file path with
      | Ok j -> j
      | Error msg ->
          Printf.eprintf "%s\n" msg;
          exit 1
    in
    let rep = Sbft_analysis.Diff.compare ~tolerance (load a) (load b) in
    Format.printf "%a@." (if full then Sbft_analysis.Diff.pp_full else Sbft_analysis.Diff.pp) rep;
    match rep.worst with Sbft_analysis.Diff.Fail -> exit 2 | _ -> ()
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
         "Compare two --metrics-out artifacts metric-by-metric with threshold verdicts (exit 2 \
          when any metric fails)")
    Term.(const go $ a $ b $ tolerance $ full)

(* ------------------------------------------------------------------ *)
(* experiment *)

let experiment_cmd =
  let go id csv html metrics_out progress =
    let metrics_oc = Option.map (fun p -> (p, open_out_or_die p)) metrics_out in
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
    let tables =
      match String.lowercase_ascii id with
      | "all" ->
          List.map
            (fun id ->
              match Sbft_harness.Experiments.by_id id with
              | Some f -> timed id f
              | None -> assert false)
            Sbft_harness.Experiments.ids
      | id -> (
          match Sbft_harness.Experiments.by_id id with
          | Some f -> [ timed id f ]
          | None ->
              Printf.eprintf "unknown experiment %S; known: all, %s\n" id
                (String.concat ", " Sbft_harness.Experiments.ids);
              exit 1)
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
    match metrics_oc with
    | Some (path, oc) ->
        let module J = Sbft_sim.Json in
        let members = [ ("tables", J.List (List.map Sbft_harness.Table.to_json tables)) ] in
        (* when E5 ran, attach the convergence curves behind its table *)
        let members =
          if List.exists (fun (t : Sbft_harness.Table.t) -> t.id = "E5") tables then
            members
            @ [ ("stabilization_telemetry", Sbft_harness.Experiments.stabilization_telemetry ()) ]
          else members
        in
        output_string oc (J.to_string (J.Obj members));
        output_char oc '\n';
        close_out oc;
        Printf.printf "wrote %s\n" path
    | None -> ()
  in
  let id = Arg.(value & pos 0 string "all" & info [] ~docv:"ID" ~doc:"Experiment id (e1..e20) or all.") in
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
    let sys = Sbft_labels.Sbls.system ~k in
    Format.printf "k = %d, universe = %d stings, label size = %d bits@." k
      (k * k + 1)
      (Sbft_labels.Sbls.size_bits sys);
    let rng = Sbft_sim.Rng.create 1L in
    let l0 = Sbft_labels.Sbls.initial sys in
    let l1 = Sbft_labels.Sbls.next sys [ l0 ] in
    Format.printf "initial:     %a@." Sbft_labels.Sbls.pp l0;
    Format.printf "next [l0]:   %a   (l0 < l1: %b)@." Sbft_labels.Sbls.pp l1
      (Sbft_labels.Sbls.prec l0 l1);
    let failures = ref 0 in
    for _ = 1 to trials do
      let inputs = List.init (1 + Sbft_sim.Rng.int rng k) (fun _ -> Sbft_labels.Sbls.random sys rng) in
      let nxt = Sbft_labels.Sbls.next sys inputs in
      if not (List.for_all (fun l -> Sbft_labels.Sbls.prec l nxt) inputs) then incr failures
    done;
    Format.printf "domination over %d random corrupted input sets: %d failures@." trials !failures
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
    let cfg = Sbft_core.Config.make ~n:6 ~f:1 ~clients:2 () in
    let sys = Sbft_core.System.create ~seed ~trace_level:Sbft_sim.Trace.On cfg in
    let flow =
      Sbft_harness.Flow.attach (Sbft_core.System.network sys)
        ~describe:(fun m -> Format.asprintf "%a" Sbft_core.Msg.pp m)
    in
    let read_start = ref 0 in
    Sbft_core.System.write sys ~client:6 ~value:7
      ~k:(fun () ->
        read_start := Sbft_sim.Engine.now (Sbft_core.System.engine sys);
        Sbft_core.System.read sys ~client:7
          ~k:(fun o -> Printf.printf "read -> %s\n\n" (outcome_str o))
          ())
      ();
    Sbft_core.System.quiesce sys;
    (* The paper's Figure 4: projections of the operations' events at
       their clients. *)
    let name i = if i < 6 then Printf.sprintf "s%d" i else Printf.sprintf "c%d" i in
    print_string
      (Sbft_harness.Flow.projection ~until:(!read_start - 1) ~endpoint:6 ~name flow);
    print_newline ();
    print_string (Sbft_harness.Flow.projection ~from_time:!read_start ~endpoint:7 ~name flow);
    let m = Sbft_sim.Engine.metrics (Sbft_core.System.engine sys) in
    Printf.printf "\nmessage counters:\n";
    List.iter (fun (k, v) -> Printf.printf "  %-24s %d\n" k v) (Sbft_sim.Metrics.counters m)
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
    let cfg = Sbft_core.Config.make ~n ~f ~clients:3 () in
    let sys = Sbft_core.System.create ~seed cfg in
    let mon = Sbft_core.Invariants.create sys in
    let plan = Sbft_byz.Fault_plan.storm ~seed ~n ~f ~clients:3 ~waves ~every in
    if verbose then Format.printf "fault timeline:@.%a@." Sbft_byz.Fault_plan.pp plan;
    Sbft_byz.Fault_plan.apply ~monitor:mon sys plan;
    let rng = Sbft_sim.Rng.create (Int64.add seed 1L) in
    let v = ref 0 in
    let rec loop c remaining =
      if remaining > 0 then begin
        let continue () =
          Sbft_sim.Engine.schedule
            (Sbft_core.System.engine sys)
            ~delay:(Sbft_sim.Rng.int_in rng 5 25)
            (fun () -> loop c (remaining - 1))
        in
        if Sbft_sim.Rng.chance rng 0.4 then begin
          incr v;
          Sbft_core.Invariants.write mon ~client:c ~value:!v ~k:continue ()
        end
        else Sbft_core.Invariants.read mon ~client:c ~k:(fun _ -> continue ()) ()
      end
    in
    for c = n to n + 2 do
      loop c 40
    done;
    Sbft_core.System.quiesce sys;
    let r = Sbft_core.Invariants.check mon in
    Format.printf "%a@." Sbft_core.Invariants.pp_report r;
    Format.printf "verdict: %s@." (if Sbft_core.Invariants.ok r then "OK" else "BROKEN");
    if not (Sbft_core.Invariants.ok r) then exit 2
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
          takeovers with healing) and report the live invariant checks")
    Term.(const go $ n $ f $ seed $ waves $ every $ verbose)

(* ------------------------------------------------------------------ *)
(* kv *)

(* Shared scaffolding for `kv` and `watch`: pre-populate the keyspace,
   schedule the fault plan and arm the streaming observability (online
   stabilization detector + anomaly ruleset).  Returns the detector,
   the optional alert engine and the absolute virtual time of the last
   scheduled fault — the detector epoch and the regularity-audit
   cutoff. *)
let kv_prepare kv ~keys ~clients ~doom ~fault_at ~fault_shards ~window ~stab_k ~slo_p99
    ~slo_budget =
  let engine = Sbft_kv.Store.engine kv in
  let shards = Sbft_kv.Store.shard_count kv in
  let key_arr = Array.init keys (fun i -> Printf.sprintf "key-%d" i) in
  Array.iteri
    (fun i key -> Sbft_kv.Store.put kv ~client:(i mod clients) ~key ~value:(1000 + i) ())
    key_arr;
  Sbft_kv.Store.quiesce kv;
  let session_start = Sbft_sim.Engine.now engine in
  let doom_time = 300 in
  if doom then begin
    let doomed = Sbft_kv.Store.shard_of_key kv key_arr.(0) in
    Printf.printf "shard %d will suffer Byzantine takeover + corruption at t=%d\n" doomed
      (session_start + doom_time);
    Sbft_sim.Engine.schedule engine ~delay:doom_time (fun () ->
        Sbft_kv.Store.apply_to_shard kv ~shard:doomed (fun sys ->
            ignore (Sbft_byz.Strategy.install_all sys Sbft_byz.Strategies.equivocate);
            Sbft_core.System.corrupt_everything sys ~severity:`Heavy))
  end;
  (match fault_at with
  | Some t ->
      let hit = max 1 (min fault_shards shards) in
      Printf.printf "%d shard%s will suffer transient heavy corruption at t=%d\n" hit
        (if hit = 1 then "" else "s")
        (session_start + t);
      Sbft_sim.Engine.schedule engine ~delay:t (fun () ->
          for s = 0 to hit - 1 do
            Sbft_kv.Store.apply_to_shard kv ~shard:s (fun sys ->
                Sbft_core.System.corrupt_everything sys ~severity:`Heavy)
          done)
  | None -> ());
  let fault_after =
    let last = max (if doom then doom_time else 0) (Option.value ~default:0 fault_at) in
    if last = 0 then 0 else session_start + last
  in
  let det_window = if window > 0 then window else 50 in
  let stab =
    Sbft_harness.Stabilization.attach ~k:stab_k ~window:det_window ~after:fault_after kv
  in
  let alerts =
    if Sbft_kv.Store.series_enabled kv then
      Some
        (Sbft_harness.Alerts.attach
           ~config:
             {
               Sbft_harness.Alerts.default_config with
               slo = { p99_ticks = slo_p99; error_budget = slo_budget };
             }
           kv)
    else None
  in
  (stab, alerts, fault_after)

(* Drive the Zipfian closed-loop session, then close the streaming
   pipeline (finalize detector and alerts, flush trailing windows) and
   audit.  Returns the workload outcome and [(checked, violations)]. *)
let kv_drive kv ~ops ~keys ~zipf ~stab ~alerts ~fault_after =
  let engine = Sbft_kv.Store.engine kv in
  let outcome =
    Sbft_harness.Workload.run_kv
      ~spec:
        {
          Sbft_harness.Workload.kv_ops_per_client = ops;
          kv_write_ratio = 0.3;
          kv_think_max = 25;
          kv_value_base = 2000;
          keys;
          zipf_s = zipf;
        }
      kv
  in
  let now = Sbft_sim.Engine.now engine in
  Sbft_harness.Stabilization.finalize stab ~now;
  Option.iter (fun a -> Sbft_harness.Alerts.finalize a ~now) alerts;
  Sbft_kv.Store.roll_series_to kv ~time:now;
  let audit = Sbft_kv.Store.check_regular ~after:fault_after kv in
  (outcome, audit)

(* The open-loop twin of [kv_drive]: run the arrival engine, then close
   the same streaming pipeline and audit. *)
let kv_drive_open kv ~spec ~stab ~alerts ~fault_after =
  let engine = Sbft_kv.Store.engine kv in
  let outcome = Sbft_harness.Loadgen.run ~spec kv in
  let now = Sbft_sim.Engine.now engine in
  Sbft_harness.Stabilization.finalize stab ~now;
  Option.iter (fun a -> Sbft_harness.Alerts.finalize a ~now) alerts;
  Sbft_kv.Store.roll_series_to kv ~time:now;
  let audit = Sbft_kv.Store.check_regular ~after:fault_after kv in
  (outcome, audit)

let kv_shards_arg = Arg.(value & opt int 4 & info [ "shards" ] ~doc:"Replica groups.")

let kv_n_arg = Arg.(value & opt int 6 & info [ "n" ] ~doc:"Servers per shard.")

let kv_f_arg = Arg.(value & opt int 1 & info [ "f" ] ~doc:"Byzantine bound per shard.")

let kv_seed_arg = Arg.(value & opt int64 42L & info [ "seed" ] ~doc:"PRNG seed.")

let kv_keys_arg = Arg.(value & opt int 8 & info [ "keys" ] ~doc:"Distinct keys.")

let kv_ops_arg = Arg.(value & opt int 30 & info [ "ops" ] ~doc:"Operations per client.")

let kv_clients_arg = Arg.(value & opt int 3 & info [ "clients" ] ~doc:"Logical store clients.")

let kv_doom_arg =
  Arg.(
    value
    & flag
    & info [ "doom" ] ~doc:"Destroy one shard mid-run (Byzantine takeover + heavy corruption).")

let kv_fault_at_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fault-at" ] ~docv:"T"
        ~doc:
          "Inject transient heavy corruption into the first $(b,--fault-shards) shards T ticks \
           into the session; the stabilization detector measures recovery from this instant.")

let kv_fault_shards_arg =
  Arg.(
    value
    & opt int 1
    & info [ "fault-shards" ] ~docv:"N" ~doc:"Shards hit by $(b,--fault-at) (from shard 0).")

let kv_zipf_arg =
  Arg.(
    value
    & opt float Sbft_harness.Workload.default_kv.zipf_s
    & info [ "zipf" ] ~docv:"S" ~doc:"Zipf skew exponent for key popularity (0 = uniform).")

let kv_window_arg =
  Arg.(
    value
    & opt int 50
    & info [ "window" ] ~docv:"TICKS"
        ~doc:
          "Tumbling-window width of the streaming per-shard series in virtual ticks (0 turns \
           the series and the anomaly alerts off; the stabilization detector then falls back \
           to 50-tick windows).")

let kv_stab_k_arg =
  Arg.(
    value
    & opt int 3
    & info [ "stab-k" ] ~docv:"K"
        ~doc:"Consecutive clean windows required to declare a shard stabilized.")

(* -- open-loop arrival flags ---------------------------------------- *)

(* "poisson:RATE" | "const:RATE" | "ramp:A..B" — the Loadgen surface
   syntax.  Rates are ops per virtual tick; range validation (positive,
   representable) happens in Loadgen.validate so the CLI and the
   library agree on the error text. *)
let kv_arrival_conv =
  let parse s =
    let fail () =
      Error
        (`Msg
          (Printf.sprintf
             "invalid arrival process %S (expected poisson:RATE, const:RATE or ramp:A..B)" s))
    in
    match String.index_opt s ':' with
    | None -> fail ()
    | Some i -> (
        let kind = String.sub s 0 i in
        let rest = String.sub s (i + 1) (String.length s - i - 1) in
        match kind with
        | "poisson" -> (
            match float_of_string_opt rest with
            | Some r -> Ok (Sbft_harness.Loadgen.Poisson r)
            | None -> fail ())
        | "const" -> (
            match float_of_string_opt rest with
            | Some r -> Ok (Sbft_harness.Loadgen.Const r)
            | None -> fail ())
        | "ramp" -> (
            (* split on the ".." separator; the bounds are floats, so
               scan for two consecutive dots rather than any dot *)
            let sep = ref None in
            for j = 0 to String.length rest - 2 do
              if !sep = None && rest.[j] = '.' && rest.[j + 1] = '.' then sep := Some j
            done;
            match !sep with
            | None -> fail ()
            | Some j -> (
                let a = String.sub rest 0 j in
                let b = String.sub rest (j + 2) (String.length rest - j - 2) in
                match (float_of_string_opt a, float_of_string_opt b) with
                | Some a, Some b -> Ok (Sbft_harness.Loadgen.Ramp (a, b))
                | _ -> fail ()))
        | _ -> fail ())
  in
  let print fmt a = Format.pp_print_string fmt (Sbft_harness.Loadgen.arrival_to_string a) in
  Cmdliner.Arg.conv (parse, print)

let kv_arrival_arg =
  Arg.(
    value
    & opt (some kv_arrival_conv) None
    & info [ "arrival" ] ~docv:"PROCESS"
        ~doc:
          "Drive the store open-loop: simulated requests arrive by this seeded rate process \
           (ops per virtual tick) independent of completions, flow through per-shard admission \
           queues and are dispatched to free clients.  One of $(b,poisson:RATE), \
           $(b,const:RATE) or $(b,ramp:A..B) (instantaneous rate sweeping linearly from A to B \
           over the run).  Without this flag the classic closed-loop driver runs.")

(* "R:W" read/write weights, e.g. 70:30. *)
let kv_mix_conv =
  let parse s =
    let fail () =
      Error (`Msg (Printf.sprintf "invalid mix %S (expected R:W, e.g. 70:30)" s))
    in
    match String.index_opt s ':' with
    | None -> fail ()
    | Some i -> (
        let r = String.sub s 0 i and w = String.sub s (i + 1) (String.length s - i - 1) in
        match (float_of_string_opt r, float_of_string_opt w) with
        | Some r, Some w when r >= 0.0 && w >= 0.0 && r +. w > 0.0 -> Ok (w /. (r +. w))
        | _ -> fail ())
  in
  let print fmt ratio = Format.fprintf fmt "%g:%g" (1.0 -. ratio) ratio in
  Cmdliner.Arg.conv (parse, print)

let kv_mix_arg =
  Arg.(
    value
    & opt (some kv_mix_conv) None
    & info [ "mix" ] ~docv:"R:W"
        ~doc:
          "Read/write weights for the open-loop mix, e.g. $(b,95:5) for a YCSB-B-style \
           read-heavy workload (default 70:30).")

let kv_duration_arg =
  Arg.(
    value
    & opt int 2000
    & info [ "duration" ] ~docv:"TICKS"
        ~doc:"Arrival-generation span in virtual ticks (open loop only).")

let kv_total_ops_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "total-ops" ] ~docv:"N"
        ~doc:
          "Stop generating after exactly N offered arrivals, even if $(b,--duration) has not \
           elapsed (open loop only) — pins the op count of a scale run.")

let kv_max_queue_arg =
  Arg.(
    value
    & opt int 1024
    & info [ "max-queue" ] ~docv:"N"
        ~doc:
          "Per-shard admission-queue capacity; arrivals beyond it are rejected (counted, not \
           queued).")

let kv_slo_p99_arg =
  Arg.(
    value
    & opt float Sbft_harness.Slo.default_target.p99_ticks
    & info [ "slo-p99" ] ~docv:"TICKS" ~doc:"Per-shard p99 latency target in virtual ticks.")

let kv_slo_budget_arg =
  Arg.(
    value
    & opt float Sbft_harness.Slo.default_target.error_budget
    & info [ "slo-error-budget" ] ~docv:"FRAC"
        ~doc:"Allowed fraction of operations going bad (aborted reads).")

let kv_cmd =
  let go shards n f seed keys ops clients doom fault_at fault_shards zipf window stab_k level
      sample profile progress slo_p99 slo_budget arrival duration mix total_ops max_queue
      metrics_out trace_out =
    let clients = max 1 clients in
    (* Both loops sample keys through the Zipf CDF, so vet the exponent
       up front — the closed loop otherwise only fails inside run_kv. *)
    if Float.is_nan zipf || zipf < 0.0 then begin
      prerr_endline
        ("sbftreg kv: "
        ^ Sbft_harness.Loadgen.error_to_string (Sbft_harness.Loadgen.Invalid_zipf zipf));
      exit 1
    end;
    (* Open loop: build and validate the loadgen spec before paying for
       any simulation, so a bad rate/mix fails fast with the typed
       error text. *)
    let loadgen_spec =
      Option.map
        (fun a ->
          {
            Sbft_harness.Loadgen.mode = Sbft_harness.Loadgen.Open_loop a;
            duration;
            ops = total_ops;
            write_ratio = Option.value ~default:0.3 mix;
            keys;
            zipf_s = zipf;
            value_base = 2000;
            max_queue;
          })
        arrival
    in
    Option.iter
      (fun spec ->
        match Sbft_harness.Loadgen.validate spec with
        | Ok () -> ()
        | Error e ->
            prerr_endline ("sbftreg kv: " ^ Sbft_harness.Loadgen.error_to_string e);
            exit 1)
      loadgen_spec;
    let kv =
      Sbft_kv.Store.create ~seed ~trace_level:level ~sample
        ?series_window:(if window > 0 then Some window else None)
        ~shards ~n ~f ~clients ()
    in
    let engine = Sbft_kv.Store.engine kv in
    let trace_oc =
      Option.map
        (fun path ->
          let oc = open_out_or_die path in
          Sbft_sim.Trace.add_sink (Sbft_sim.Engine.trace engine) (Sbft_sim.Trace.jsonl_sink oc);
          (path, oc))
        trace_out
    in
    let prof = Sbft_sim.Engine.profile engine in
    if profile then begin
      Sbft_sim.Profile.enable prof;
      Sbft_sim.Trace.add_sink (Sbft_sim.Engine.trace engine) (Sbft_sim.Profile.event_sink prof)
    end;
    let metrics_oc = Option.map (fun path -> (path, open_out_or_die path)) metrics_out in
    let started = Sbft_harness.Clock.now_ns () in
    let heartbeat =
      if progress then
        Some
          (Sbft_harness.Progress.attach engine (fun () ->
               let issued = Sbft_kv.Store.ops_issued kv in
               let elapsed = Sbft_harness.Clock.elapsed_s started in
               let rate = if elapsed > 0.0 then float_of_int issued /. elapsed else 0.0 in
               let slo =
                 Sbft_harness.Slo.evaluate
                   ~target:{ p99_ticks = slo_p99; error_budget = slo_budget }
                   ~shards (Sbft_sim.Engine.metrics engine)
               in
               let worst =
                 List.fold_left
                   (fun acc (s : Sbft_harness.Slo.shard) -> Float.max acc s.worst_p99)
                   0.0 slo.shards
               in
               Printf.sprintf "ops issued=%d, %.0f ops/s, worst shard p99=%.0f ticks, slo %s"
                 issued rate worst
                 (if slo.ok then "ok" else "MISS")))
      else None
    in
    let stab, alerts, fault_after =
      kv_prepare kv ~keys ~clients ~doom ~fault_at ~fault_shards ~window ~stab_k ~slo_p99
        ~slo_budget
    in
    let loadgen, (checked, violations) =
      match loadgen_spec with
      | Some spec ->
          let o, audit = kv_drive_open kv ~spec ~stab ~alerts ~fault_after in
          (Some (spec, o), audit)
      | None ->
          let o, audit = kv_drive kv ~ops ~keys ~zipf ~stab ~alerts ~fault_after in
          Printf.printf "%d puts, %d gets (%d aborted); audit: %d reads checked, %d violations\n"
            o.Sbft_harness.Workload.issued_puts o.issued_gets o.aborted_gets (fst audit)
            (snd audit);
          (None, audit)
    in
    Option.iter Sbft_harness.Progress.finish heartbeat;
    (match loadgen with
    | Some (_, o) ->
        Printf.printf
          "offered %d, accepted %d, rejected %d; completed %d (%d puts, %d gets, %d aborted)%s; \
           audit: %d reads checked, %d violations\n"
          o.Sbft_harness.Loadgen.offered o.accepted o.rejected o.completed o.completed_puts
          o.completed_gets o.aborted
          (if o.livelocked then " [LIVELOCKED: event budget exhausted]" else "")
          checked violations;
        Format.printf "%a@." Sbft_harness.Loadgen.pp o
    | None -> ());
    Format.printf "%a@." Sbft_kv.Store.pp_stats kv;
    let slo =
      Sbft_harness.Slo.evaluate
        ~target:{ p99_ticks = slo_p99; error_budget = slo_budget }
        ~shards (Sbft_sim.Engine.metrics engine)
    in
    Format.printf "%a@." Sbft_harness.Slo.pp slo;
    Format.printf "%a@." Sbft_harness.Stabilization.pp stab;
    Option.iter (fun a -> Format.printf "%a@." Sbft_harness.Alerts.pp a) alerts;
    let profile_report = if profile then Some (Sbft_sim.Profile.report prof) else None in
    Option.iter (fun rep -> Format.printf "%a@." Sbft_sim.Profile.pp rep) profile_report;
    (match metrics_oc with
    | Some (path, oc) ->
        let module J = Sbft_sim.Json in
        let run =
          [
            ("cmd", J.String "kv");
            ("shards", J.Int shards);
            ("n", J.Int n);
            ("f", J.Int f);
            ("clients", J.Int clients);
            ("seed", J.String (Int64.to_string seed));
            ("keys", J.Int keys);
            ("ops_per_client", J.Int ops);
            ("zipf", J.Float zipf);
            ("window", J.Int window);
            ("stab_k", J.Int stab_k);
            ("doom", J.Bool doom);
            ("fault_at", (match fault_at with Some t -> J.Int t | None -> J.Null));
            ("fault_shards", J.Int fault_shards);
            ("trace_level", J.String (Sbft_sim.Trace.level_to_string level));
            ("ops_issued", J.Int (Sbft_kv.Store.ops_issued kv));
            ("vtime", J.Int (Sbft_sim.Engine.now engine));
            ("events_fired", J.Int (Sbft_sim.Engine.events_fired engine));
          ]
          @
          match loadgen with
          | Some (spec, _) ->
              [
                ( "arrival",
                  match spec.Sbft_harness.Loadgen.mode with
                  | Sbft_harness.Loadgen.Open_loop a ->
                      J.String (Sbft_harness.Loadgen.arrival_to_string a)
                  | Sbft_harness.Loadgen.Closed_loop _ -> J.String "closed" );
                ("duration", J.Int spec.duration);
                ("mix_write_ratio", J.Float spec.write_ratio);
                ("max_queue", J.Int spec.max_queue);
                ("total_ops", (match spec.ops with Some n -> J.Int n | None -> J.Null));
              ]
          | None -> []
        in
        output_string oc
          (J.to_string
             (Sbft_harness.Artifacts.metrics_json ~run
                ~regularity:(checked, violations)
                ~stabilization:stab ?alerts
                ?loadgen:
                  (Option.map
                     (fun (spec, o) -> Sbft_harness.Loadgen.to_json ~spec o)
                     loadgen)
                ?series:
                  (if Sbft_kv.Store.series_enabled kv then Some (Sbft_kv.Store.all_series kv)
                   else None)
                ?queue_series:
                  (match loadgen with
                  | Some (_, o) when Array.length o.Sbft_harness.Loadgen.queue_series > 0 ->
                      Some (Array.to_list o.Sbft_harness.Loadgen.queue_series)
                  | _ -> None)
                ~shards:(Sbft_harness.Slo.to_json slo)
                ?profile:(Option.map Sbft_sim.Profile.to_json profile_report)
                ~metrics:(Sbft_sim.Engine.metrics engine)
                ~per_node:[||] ()));
        output_char oc '\n';
        close_out oc;
        Printf.printf "wrote %s\n" path
    | None -> ());
    (match trace_oc with
    | Some (path, oc) ->
        close_out oc;
        Printf.printf "wrote %s\n" path
    | None -> ());
    if violations > 0 || not slo.ok then exit 2
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
  let kv_trace_out =
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
      const go $ kv_shards_arg $ kv_n_arg $ kv_f_arg $ kv_seed_arg $ kv_keys_arg $ kv_ops_arg
      $ kv_clients_arg $ kv_doom_arg $ kv_fault_at_arg $ kv_fault_shards_arg $ kv_zipf_arg
      $ kv_window_arg $ kv_stab_k_arg $ trace_level_arg $ sample_arg $ profile_arg $ progress_arg
      $ kv_slo_p99_arg $ kv_slo_budget_arg $ kv_arrival_arg $ kv_duration_arg $ kv_mix_arg
      $ kv_total_ops_arg $ kv_max_queue_arg $ metrics_out $ kv_trace_out)

(* ------------------------------------------------------------------ *)
(* watch *)

let watch_cmd =
  let go shards n f seed keys ops clients doom fault_at fault_shards zipf window stab_k slo_p99
      slo_budget every_s ansi =
    let clients = max 1 clients in
    let window = if window > 0 then window else 50 in
    let kv =
      Sbft_kv.Store.create ~seed ~trace_level:Sbft_sim.Trace.Off ~series_window:window ~shards ~n
        ~f ~clients ()
    in
    let engine = Sbft_kv.Store.engine kv in
    let stab, alerts, fault_after =
      kv_prepare kv ~keys ~clients ~doom ~fault_at ~fault_shards ~window ~stab_k ~slo_p99
        ~slo_budget
    in
    let dash = Sbft_harness.Dashboard.create ~stabilization:stab ?alerts kv in
    let heartbeat =
      Sbft_harness.Progress.attach ~every_s ~out:stdout engine (fun () ->
          (if ansi then "\027[2J\027[H" else "") ^ "\n" ^ Sbft_harness.Dashboard.render dash)
    in
    let outcome, (checked, violations) = kv_drive kv ~ops ~keys ~zipf ~stab ~alerts ~fault_after in
    Sbft_harness.Progress.finish heartbeat;
    Printf.printf "%d puts, %d gets (%d aborted); audit: %d reads checked, %d violations\n"
      outcome.Sbft_harness.Workload.issued_puts outcome.issued_gets outcome.aborted_gets checked
      violations;
    Format.printf "%a@." Sbft_harness.Stabilization.pp stab;
    Option.iter (fun a -> Format.printf "%a@." Sbft_harness.Alerts.pp a) alerts;
    if violations > 0 then exit 2
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
    Term.(
      const go $ kv_shards_arg $ kv_n_arg $ kv_f_arg $ kv_seed_arg $ kv_keys_arg $ kv_ops_arg
      $ kv_clients_arg $ kv_doom_arg $ kv_fault_at_arg $ kv_fault_shards_arg $ kv_zipf_arg
      $ kv_window_arg $ kv_stab_k_arg $ kv_slo_p99_arg $ kv_slo_budget_arg $ every_s $ ansi)

(* ------------------------------------------------------------------ *)
(* report *)

let report_cmd =
  let go metrics_path html_path title =
    match Sbft_sim.Json.of_file metrics_path with
    | Error msg ->
        Printf.eprintf "%s\n" msg;
        exit 1
    | Ok artifact ->
        Sbft_harness.Report.write_series_report ~path:html_path ?title artifact;
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

let save_finding ~dir ~name ~note (s : Scenario.t) =
  match Scenario.execute s with
  | Error e ->
      Printf.eprintf "%s: %s\n" name e;
      None
  | Ok r ->
      let verdict = Scenario.verdict_to_string (Scenario.verdict_of_run r) in
      let header = Scenario.to_header ~fingerprint:(fingerprint ()) ~verdict ~note s in
      let path = Filename.concat dir name in
      Trace_file.save ~path ~header r.events;
      Some (path, verdict)

let fuzz_cmd =
  let save_findings ~dir ~seed findings =
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    List.iteri
      (fun i (fd : Fuzz.finding) ->
        let name = Printf.sprintf "finding-%03d.trace" i in
        let note = Printf.sprintf "fuzz campaign seed=%Ld step=%d" seed fd.step in
        match save_finding ~dir ~name ~note fd.scenario with
        | Some (path, verdict) -> Printf.printf "wrote %s (%s)\n" path verdict
        | None -> ())
      findings
  in
  (* Retained corpus entries become replayable artifacts too: each is
     re-executed so the header records its verdict and the event stream
     — `sbftreg corpus DIR` then proves every entry replays to the same
     verdict, regardless of how many domains retained it. *)
  let save_corpus_entries ~dir ~seed ~domains corpus =
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    List.iteri
      (fun i s ->
        let name = Printf.sprintf "corpus-%03d.trace" i in
        let note = Printf.sprintf "fuzz corpus seed=%Ld domains=%d entry=%d" seed domains i in
        match save_finding ~dir ~name ~note s with
        | Some (path, verdict) -> Printf.printf "wrote %s (%s)\n" path verdict
        | None -> ())
      corpus
  in
  let go n f clients ops wr delay seed iters budget max_findings quiet save save_corpus domains =
    if domains < 1 then begin
      Printf.eprintf "--domains must be >= 1\n";
      exit 1
    end;
    let base =
      { Scenario.default with n; f; clients; ops_per_client = ops; write_ratio = wr; delay }
    in
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
    Option.iter (fun dir -> save_findings ~dir ~seed findings) save;
    Option.iter (fun dir -> save_corpus_entries ~dir ~seed ~domains corpus) save_corpus;
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
  let save =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"DIR"
          ~doc:"Save each finding as a replayable trace artifact (verdict in the header) in DIR.")
  in
  let save_corpus =
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
      $ quiet $ save $ save_corpus $ domains)

(* ------------------------------------------------------------------ *)
(* shrink *)

let shrink_cmd =
  let go path out max_execs verbose =
    match Trace_file.load path with
    | Error msg ->
        Printf.eprintf "%s\n" msg;
        exit 1
    | Ok { header = None; _ } ->
        Printf.eprintf "%s: no run header — nothing to shrink\n" path;
        exit 1
    | Ok { header = Some h; _ } -> (
        match Scenario.of_header h with
        | Error msg ->
            Printf.eprintf "%s\n" msg;
            exit 1
        | Ok scenario -> (
            match Scenario.execute scenario with
            | Error msg ->
                Printf.eprintf "%s\n" msg;
                exit 1
            | Ok r -> (
                match Scenario.verdict_of_run r with
                | Scenario.Pass ->
                    Printf.eprintf "%s: verdict is ok — nothing to shrink\n" path;
                    exit 1
                | target ->
                    Printf.printf "target verdict: %s\n" (Scenario.verdict_to_string target);
                    let log =
                      if verbose then fun line -> Printf.printf "  %s\n%!" line else fun _ -> ()
                    in
                    let res = Shrink.shrink ~max_executions:max_execs ~log ~target scenario in
                    Format.printf "%a@." Shrink.pp_result res;
                    let out =
                      match out with
                      | Some o -> o
                      | None -> Filename.remove_extension path ^ ".min.trace"
                    in
                    let note =
                      if h.note <> "" then h.note
                      else Printf.sprintf "shrunk from %s" (Filename.basename path)
                    in
                    (match save_finding ~dir:(Filename.dirname out)
                             ~name:(Filename.basename out) ~note res.scenario with
                    | Some (p, verdict) -> Printf.printf "wrote %s (%s)\n" p verdict
                    | None -> exit 1);
                    Printf.printf "repro: %s\n" (repro_invocation res.scenario))))
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
    match Corpus.load_dir dir with
    | Error msg ->
        Printf.eprintf "%s\n" msg;
        exit 1
    | Ok [] ->
        Printf.eprintf "%s: empty corpus\n" dir;
        exit 1
    | Ok entries ->
        let failures = ref 0 in
        List.iter
          (fun (e : Corpus.entry) ->
            let name = Filename.basename e.path in
            let fail msg =
              incr failures;
              Printf.printf "FAIL %-32s %s\n" name msg
            in
            if e.header.verdict = "" then fail "header records no verdict"
            else
              match Scenario.of_header e.header with
              | Error msg -> fail msg
              | Ok s -> (
                  match Scenario.execute s with
                  | Error msg -> fail msg
                  | Ok r ->
                      let got = Scenario.verdict_to_string (Scenario.verdict_of_run r) in
                      if got <> e.header.verdict then
                        fail (Printf.sprintf "verdict %s, header says %s" got e.header.verdict)
                      else begin
                        (* recorded events, when present, must replay
                           bit-for-bit — same determinism contract as
                           `sbftreg replay` *)
                        let divergence =
                          if e.events = [] then None
                          else
                            (Replay.compare_for_level ~trace_level:e.header.trace_level
                               ~expected:e.events ~got:r.events)
                              .divergence
                        in
                        match divergence with
                        | Some d -> fail (Printf.sprintf "event stream diverges at %d" d.index)
                        | None ->
                            Printf.printf "ok   %-32s %-16s %s\n" name e.header.verdict
                              e.header.note
                      end))
          entries;
        Printf.printf "%d entries, %d failures\n" (List.length entries) !failures;
        if !failures > 0 then exit 2
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
  let go quick json_path baseline_path tolerance strict =
    let module B = Sbft_harness.Benchmarks in
    let r = B.run ~quick () in
    Format.printf "%a@." B.pp r;
    (match json_path with
    | Some path ->
        Sbft_harness.Artifacts.write_file ~path (B.to_json r);
        Printf.printf "wrote %s\n" path
    | None -> ());
    match baseline_path with
    | None -> ()
    | Some path -> (
        match Sbft_sim.Json.of_file path with
        | Error e ->
            Printf.eprintf "cannot load baseline: %s\n" e;
            exit 2
        | Ok baseline ->
            let cmp = B.compare_to_baseline ~tolerance ~baseline r in
            (* a metric absent from the baseline is NOT gated — say so
               loudly, because a renamed metric looks exactly like this
               and would otherwise pass as a clean run *)
            List.iter
              (fun metric -> Printf.printf "NEW (ungated) %s: no baseline entry\n" metric)
              cmp.B.ungated;
            (match cmp.B.regressions with
            | [] ->
                Printf.printf "baseline %s: within %.0f%% tolerance\n" path (tolerance *. 100.)
            | regressions ->
                List.iter
                  (fun { B.metric; baseline; current; ratio } ->
                    Printf.eprintf "REGRESSION %s: %.1f -> %.1f (%.0f%% of baseline)\n" metric
                      baseline current (ratio *. 100.))
                  regressions;
                exit 1);
            if strict && cmp.B.ungated <> [] then begin
              Printf.eprintf
                "strict: %d metric(s) not gated by %s — refresh the baseline to cover them\n"
                (List.length cmp.B.ungated) path;
              exit 3
            end)
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Smoke-test budgets (sub-second, 1k-op history).")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "Exit 3 when any measured metric is missing from the baseline (printed as NEW \
             (ungated)) — so CI cannot pass on a renamed or newly added metric without a \
             baseline refresh.")
  in
  let json_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write machine-readable results to $(docv).")
  in
  let baseline_path =
    Arg.(
      value
      & opt (some file) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Compare against a committed bench JSON; exit 1 if fuzz schedules/sec or checker \
             throughput regressed beyond the tolerance.")
  in
  let tolerance =
    Arg.(
      value & opt float 0.3
      & info [ "tolerance" ] ~docv:"FRAC" ~doc:"Allowed fractional regression (default 0.3).")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Measure hot-path throughput (engine events/sec, fuzz schedules/sec, checker latency) \
          and optionally gate against a committed baseline")
    Term.(const go $ quick $ json_path $ baseline_path $ tolerance $ strict)

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
            trends_cmd;
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
