module Rng = Sbft_sim.Rng
module Coverage = Sbft_sim.Coverage
module Fault_plan = Sbft_byz.Fault_plan

type finding = { scenario : Scenario.t; verdict : Scenario.verdict; step : int }

type report = {
  executed : int;
  skipped : int;
  corpus : Scenario.t list;
  coverage : int;
  findings : finding list;
  stopped_by : [ `Iterations | `Budget | `Findings ];
}

(* Keep fuzzed runs small: mutation explores schedules, not workload
   scale, and the shrinker drives sizes down anyway.  A cap on total
   operations bounds the cost of one execution. *)
let max_ops_per_client = 40
let max_clients = 6
let max_total_ops = 200

let write_ratios = [| 0.1; 0.3; 0.5; 0.7; 0.9 |]

let clamp lo hi v = max lo (min hi v)

let mutate rng (s : Scenario.t) =
  let s =
    match Rng.int rng 8 with
    | 0 -> { s with seed = Rng.int64 rng }
    | 1 -> { s with delay = fst (Rng.pick_list rng Scenario.policies) }
    | 2 -> { s with write_ratio = Rng.pick rng write_ratios }
    | 3 ->
        let ops = clamp 1 max_ops_per_client (s.ops_per_client + Rng.int_in rng (-10) 10) in
        { s with ops_per_client = ops }
    | 4 -> { s with clients = clamp 1 max_clients (s.clients + Rng.int_in rng (-1) 1) }
    | 5 -> { s with corrupt = not s.corrupt }
    | 6 ->
        if Rng.chance rng 0.3 then { s with strategy = None }
        else { s with strategy = Some (fst (Rng.pick_list rng Sbft_byz.Strategies.all)) }
    | _ -> { s with plan = Fault_plan.mutate rng ~n:s.n ~f:s.f ~clients:s.clients s.plan }
  in
  (* Keep the composed adversary inside the f-budget: a pre-installed
     strategy already compromises f servers, so a plan that adds its
     own takeovers on top would exceed the model's bound by
     construction (the explorer applies the same rule to storms). *)
  let s =
    if s.strategy <> None && Fault_plan.has_byzantine s.plan then
      { s with plan = List.filter (function _, Fault_plan.Byzantine _ -> false | _ -> true) s.plan }
    else s
  in
  (* A clients mutation can orphan an earlier plan event's target. *)
  let s = { s with plan = Fault_plan.restrict ~n:s.n ~clients:s.clients s.plan } in
  if s.ops_per_client * s.clients > max_total_ops then
    { s with ops_per_client = max 1 (max_total_ops / s.clients) }
  else s

(* The campaign's report and its final coverage set, which
   [run_parallel] merges across domains. *)
let campaign ?(base = Scenario.default) ?(iterations = 200) ?budget_s ?(max_findings = 10)
    ?(max_events = 4_000_000) ?(log = fun _ -> ()) ~seed () =
  let rng = Rng.create seed in
  let global = Coverage.create () in
  (* One scratch set reused across schedules, fed by a trace sink, so a
     run's coverage never materializes the event list at all. *)
  let scratch = Coverage.create () in
  let sink ~time:(_ : int) ev = Coverage.observe scratch ev in
  (* Chronological dynamic array: O(1) retention and O(1) parent pick.
     The corpus grows with every coverage gain, and the previous list
     representation paid an O(corpus) [List.nth] on every iteration.
     Picks draw the same single [Rng.int] the list version did and map
     its newest-first index onto the array, so campaigns replay
     identically per seed. *)
  let corpus = ref (Array.make 16 base) and corpus_len = ref 0 in
  let retain s =
    if !corpus_len = Array.length !corpus then begin
      let nc = Array.make (2 * !corpus_len) s in
      Array.blit !corpus 0 nc 0 !corpus_len;
      corpus := nc
    end;
    !corpus.(!corpus_len) <- s;
    incr corpus_len
  in
  let pick_parent () = !corpus.(!corpus_len - 1 - Rng.int rng !corpus_len) in
  let findings = ref [] and n_findings = ref 0 in
  let executed = ref 0 and skipped = ref 0 in
  (* Budgets are wall time, not CPU time: a campaign blocked on trace
     I/O must still stop on schedule. *)
  let started = Clock.now_ns () in
  let over_budget () =
    match budget_s with Some b -> Clock.elapsed_s started > b | None -> false
  in
  let execute step s =
    Coverage.reset scratch;
    match Scenario.execute ~sink ~collect_events:false ~max_events s with
    | Error e ->
        (* mutations only compose known names, so this is unexpected —
           count it rather than hide it *)
        incr skipped;
        log (Printf.sprintf "step %d: skipped (%s)" step e);
        None
    | Ok r ->
        incr executed;
        Some r
  in
  let consider step s =
    match execute step s with
    | None -> ()
    | Some r ->
        let gained = Coverage.absorb ~into:global scratch in
        if gained > 0 then retain s;
        (match Scenario.verdict_of_run r with
        | Scenario.Pass -> ()
        | verdict ->
            incr n_findings;
            findings := { scenario = s; verdict; step } :: !findings;
            log
              (Printf.sprintf "step %d: %s (corpus %d, coverage %d)" step
                 (Scenario.verdict_to_string verdict)
                 !corpus_len (Coverage.cardinal global)));
        if gained > 0 && step > 0 then
          log
            (Printf.sprintf "step %d: +%d coverage keys (%d total, corpus %d)" step gained
               (Coverage.cardinal global) !corpus_len)
  in
  (* Seed the corpus with the base scenario itself. *)
  consider 0 base;
  let stopped = ref `Iterations in
  (try
     for step = 1 to iterations do
       if over_budget () then begin
         stopped := `Budget;
         raise Exit
       end;
       if !n_findings >= max_findings then begin
         stopped := `Findings;
         raise Exit
       end;
       (* Pick a parent: mostly from the retained corpus (schedules
          that reached new protocol states deserve the mutation
          energy), sometimes the base to re-diversify. *)
       let parent =
         if !corpus_len = 0 || Rng.chance rng 0.1 then base else pick_parent ()
       in
       consider step (mutate rng parent)
     done
   with Exit -> ());
  ( {
      executed = !executed;
      skipped = !skipped;
      corpus = Array.to_list (Array.sub !corpus 0 !corpus_len);
      coverage = Coverage.cardinal global;
      findings = List.rev !findings;
      stopped_by = !stopped;
    },
    global )

let run ?base ?iterations ?budget_s ?max_findings ?max_events ?log ~seed () =
  fst (campaign ?base ?iterations ?budget_s ?max_findings ?max_events ?log ~seed ())

(* ------------------------------------------------------------------ *)
(* Domain-parallel campaigns.

   One fully independent deterministic campaign per domain: domain 0
   runs the caller's seed verbatim (so [--domains 1] is the single
   threaded campaign, byte for byte) and domain [i] a seed derived by
   a fixed odd-multiplier mix.  Retention decisions use only the
   domain's local coverage — cross-domain knowledge must not influence
   them, or the per-seed determinism contract (and the corpus-union
   property) would break.  The merge runs after every domain has
   joined, in domain order, so it does not depend on scheduling: the
   corpora are concatenated, keeping each scenario's first occurrence,
   and the final coverage sets are absorbed into one (ids are
   domain-local; [absorb] translates them through the key strings). *)

let domain_seed ~seed i =
  if i = 0 then seed
  else Int64.add seed (Int64.mul (Int64.of_int i) 0x9E3779B97F4A7C15L)

type domain_report = { domain : int; seed_used : int64; report : report }

type parallel_report = {
  domains : int;
  per_domain : domain_report list;
  merged_corpus : Scenario.t list;
  merged_coverage : int;
  merged_findings : (int * finding) list;
  total_executed : int;
  total_skipped : int;
}

let run_parallel ?(base = Scenario.default) ?(iterations = 200) ?budget_s ?(max_findings = 10)
    ?(max_events = 4_000_000) ?(log = fun _ -> ()) ?(domains = 1) ~seed () =
  if domains < 1 then invalid_arg "Fuzz.run_parallel: domains must be >= 1";
  let results =
    Par.spawn_map ~domains (fun d ->
        let dseed = domain_seed ~seed d in
        let lines = ref [] in
        let r, cov =
          campaign ~base ~iterations ?budget_s ~max_findings ~max_events
            ~log:(fun line -> lines := line :: !lines)
            ~seed:dseed ()
        in
        (d, dseed, r, cov, List.rev !lines))
  in
  (* Worker log lines are buffered per domain and replayed here, in
     domain order, so the caller's [log] is never called concurrently. *)
  List.iter
    (fun (d, _, _, _, lines) ->
      List.iter (fun line -> log (Printf.sprintf "[d%d] %s" d line)) lines)
    results;
  let merged_cov = Coverage.create () in
  List.iter (fun (_, _, _, cov, _) -> ignore (Coverage.absorb ~into:merged_cov cov : int)) results;
  let seen = Hashtbl.create 64 in
  let first s =
    if Hashtbl.mem seen s then false
    else (
      Hashtbl.add seen s ();
      true)
  in
  let per_domain =
    List.map (fun (d, dseed, r, _, _) -> { domain = d; seed_used = dseed; report = r }) results
  in
  {
    domains;
    per_domain;
    merged_corpus = List.concat_map (fun dr -> List.filter first dr.report.corpus) per_domain;
    merged_coverage = Coverage.cardinal merged_cov;
    merged_findings =
      List.concat_map (fun dr -> List.map (fun f -> (dr.domain, f)) dr.report.findings) per_domain;
    total_executed = List.fold_left (fun acc dr -> acc + dr.report.executed) 0 per_domain;
    total_skipped = List.fold_left (fun acc dr -> acc + dr.report.skipped) 0 per_domain;
  }

let pp_report fmt r =
  Format.fprintf fmt "@[<v>fuzz: %d runs (%d skipped), %d coverage keys, corpus %d, %d findings%s@,"
    r.executed r.skipped r.coverage (List.length r.corpus) (List.length r.findings)
    (match r.stopped_by with
    | `Iterations -> ""
    | `Budget -> " [budget exhausted]"
    | `Findings -> " [finding cap reached]");
  List.iter
    (fun f ->
      Format.fprintf fmt "  step %d: %s seed=%Ld delay=%s strategy=%s%s plan=[%s]@," f.step
        (Scenario.verdict_to_string f.verdict)
        f.scenario.seed f.scenario.delay
        (Option.value ~default:"none" f.scenario.strategy)
        (if f.scenario.corrupt then " corrupt" else "")
        (Fault_plan.to_string f.scenario.plan))
    r.findings;
  Format.fprintf fmt "@]"

let pp_parallel_report fmt (p : parallel_report) =
  Format.fprintf fmt
    "@[<v>fuzz[%d domains]: %d runs (%d skipped), merged coverage %d, merged corpus %d, %d findings@,"
    p.domains p.total_executed p.total_skipped p.merged_coverage
    (List.length p.merged_corpus)
    (List.length p.merged_findings);
  List.iter
    (fun dr ->
      Format.fprintf fmt "  domain %d (seed %Ld): %d runs, coverage %d, corpus %d, %d findings%s@,"
        dr.domain dr.seed_used dr.report.executed dr.report.coverage
        (List.length dr.report.corpus)
        (List.length dr.report.findings)
        (match dr.report.stopped_by with
        | `Iterations -> ""
        | `Budget -> " [budget]"
        | `Findings -> " [finding cap]"))
    p.per_domain;
  List.iter
    (fun (d, f) ->
      Format.fprintf fmt "  d%d step %d: %s seed=%Ld delay=%s strategy=%s%s plan=[%s]@," d f.step
        (Scenario.verdict_to_string f.verdict)
        f.scenario.seed f.scenario.delay
        (Option.value ~default:"none" f.scenario.strategy)
        (if f.scenario.corrupt then " corrupt" else "")
        (Fault_plan.to_string f.scenario.plan))
    p.merged_findings;
  Format.fprintf fmt "@]"
