type fault_mode = Clean | Corrupt_t0 | Storm

type scenario = { seed : int64; policy : string; strategy : string; fault : fault_mode }

type failure = {
  scenario : scenario;
  kind : [ `Violation of string | `Livelock | `Starved | `Incomplete ];
}

type summary = { runs : int; failures : failure list; total_reads : int; total_aborts : int }

let policies = Scenario.policies

let strategies = "none" :: List.map fst Sbft_byz.Strategies.all

let classify ~livelocked ~completed_reads ~aborted_reads ~incomplete ~violations scenario =
  let failures = ref [] in
  List.iter (fun d -> failures := { scenario; kind = `Violation d } :: !failures) violations;
  if livelocked then failures := { scenario; kind = `Livelock } :: !failures
  else if completed_reads = 0 && aborted_reads > 0 then
    (* Every read aborted but the run terminated: the protocol stayed
       live in the engine sense yet starved its readers.  Distinct from
       `Incomplete (operations that never got any response) so fuzz
       triage does not lump starvation with crashes. *)
    failures := { scenario; kind = `Starved } :: !failures
  else if incomplete > 0 then failures := { scenario; kind = `Incomplete } :: !failures;
  List.rev !failures

(* One grid point is an ordinary scenario; only the classification
   (every violation, starvation over all reads) is the grid's own. *)
let run_one ~n ~f ~clients ~ops_per_client scenario =
  let s =
    {
      Scenario.default with
      n;
      f;
      clients;
      seed = scenario.seed;
      ops_per_client;
      strategy = (if scenario.strategy = "none" then None else Some scenario.strategy);
      corrupt = scenario.fault = Corrupt_t0;
      delay = scenario.policy;
      (* a short storm; the audit starts after its final event *)
      plan =
        (if scenario.fault = Storm then
           Sbft_byz.Fault_plan.storm ~seed:scenario.seed ~n ~f ~clients ~waves:3 ~every:120
         else []);
      snapshot_every = 0;
    }
  in
  match Scenario.execute ~level:Sbft_sim.Trace.Off ~collect_events:false s with
  | Error e -> invalid_arg e
  | Ok r ->
      let failures =
        classify ~livelocked:r.outcome.livelocked ~completed_reads:(r.reg.completed_reads ())
          ~aborted_reads:(r.reg.aborted_reads ())
          ~incomplete:(Scenario.incomplete_ops ~since:r.last_fault (Sbft_core.System.history r.sys))
          ~violations:
            (List.map (fun (v : Sbft_spec.Regularity.violation) -> v.detail) r.report.violations)
          scenario
      in
      (failures, r.report.checked_reads, r.reg.aborted_reads ())

let explore ?(n = 6) ?(f = 1) ?(ops_per_client = 12) ?(seeds = 5) () =
  let clients = 4 in
  let runs = ref 0 and failures = ref [] and reads = ref 0 and aborts = ref 0 in
  for seed_i = 1 to seeds do
    List.iter
      (fun (pname, _) ->
        List.iter
          (fun sname ->
            List.iter
              (fun fault ->
                (* A storm brings its own (f-budgeted) Byzantine
                   takeovers; stacking it on a pre-installed strategy
                   would exceed f and lose liveness by design.  Run
                   storms only on the strategy-free row. *)
                if fault = Storm && sname <> "none" then ()
                else begin
                let scenario =
                  { seed = Int64.of_int (7919 * seed_i); policy = pname; strategy = sname; fault }
                in
                incr runs;
                let fs, r, a = run_one ~n ~f ~clients ~ops_per_client scenario in
                failures := fs @ !failures;
                reads := !reads + r;
                aborts := !aborts + a
                end)
              [ Clean; Corrupt_t0; Storm ])
          strategies)
      policies
  done;
  { runs = !runs; failures = List.rev !failures; total_reads = !reads; total_aborts = !aborts }

let pp_summary fmt s =
  Format.fprintf fmt "@[<v>explored %d schedules: %d reads audited, %d aborts, %d failures@,"
    s.runs s.total_reads s.total_aborts (List.length s.failures);
  List.iter
    (fun f ->
      let kind =
        match f.kind with
        | `Violation d -> "VIOLATION " ^ d
        | `Livelock -> "LIVELOCK"
        | `Starved -> "STARVED"
        | `Incomplete -> "INCOMPLETE OPS"
      in
      let fault =
        match f.scenario.fault with Clean -> "clean" | Corrupt_t0 -> "corrupt-t0" | Storm -> "storm"
      in
      Format.fprintf fmt "  seed=%Ld policy=%s strategy=%s fault=%s: %s@," f.scenario.seed
        f.scenario.policy f.scenario.strategy fault kind)
    s.failures;
  Format.fprintf fmt "@]"
