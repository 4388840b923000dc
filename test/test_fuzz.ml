(* The coverage-guided fuzzer and the shrinker: campaigns are
   deterministic, the known-bad n = 5f topology yields a real
   violation, and shrinking compresses it to a corpus-sized reproducer
   without losing the verdict. *)

module Scenario = Sbft_harness.Scenario
module Fuzz = Sbft_harness.Fuzz
module Shrink = Sbft_harness.Shrink
module Explorer = Sbft_harness.Explorer
module Coverage = Sbft_sim.Coverage

(* Same base the CLI's `fuzz -n 5` builds. *)
let bad_base = { Scenario.default with n = 5; clients = 3; ops_per_client = 12 }

let good_base = { Scenario.default with clients = 3; ops_per_client = 8 }

let test_campaign_deterministic () =
  let run () = Fuzz.run ~base:good_base ~iterations:40 ~seed:17L () in
  let a = run () and b = run () in
  Alcotest.(check bool) "whole reports equal" true (a = b);
  Alcotest.(check int) "executed everything" 41 a.executed;
  Alcotest.(check int) "nothing skipped" 0 a.skipped;
  Alcotest.(check bool) "coverage accumulated" true (a.coverage > 100);
  Alcotest.(check bool) "corpus retained" true (List.length a.corpus > 1);
  let c = Fuzz.run ~base:good_base ~iterations:40 ~seed:18L () in
  Alcotest.(check bool) "different campaign seed diverges" true (a.coverage <> c.coverage || a.corpus <> c.corpus)

let test_mutants_stay_capped () =
  let rng = Sbft_sim.Rng.create 4L in
  let s = ref bad_base in
  for _ = 1 to 400 do
    s := Fuzz.mutate rng !s;
    Alcotest.(check bool) "total ops capped" true (!s.ops_per_client * !s.clients <= 200);
    Alcotest.(check bool) "clients in range" true (!s.clients >= 1 && !s.clients <= 6);
    Alcotest.(check bool) "ops in range" true (!s.ops_per_client >= 1 && !s.ops_per_client <= 40);
    Alcotest.(check bool) "budget respected" true
      (Sbft_byz.Fault_plan.byz_budget_ok ~f:!s.f !s.plan);
    Alcotest.(check bool) "no strategy+plan-byzantine stacking" true
      (not (!s.strategy <> None && Sbft_byz.Fault_plan.has_byzantine !s.plan));
    (* every mutant must execute: an unknown name or out-of-range
       target here would surface as a skipped run in a campaign *)
    match Scenario.execute ~max_events:200_000 !s with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "mutant failed to execute: %s" e
  done

(* The acceptance run: fuzzing the below-bound topology (n = 5f) finds
   a regularity violation, and shrinking it yields a corpus-sized
   reproducer with the same verdict class. *)
let test_n5_finds_violation_and_shrinks () =
  let report = Fuzz.run ~base:bad_base ~iterations:400 ~max_findings:1 ~seed:3L () in
  let finding =
    match
      List.find_opt (fun (f : Fuzz.finding) -> match f.verdict with Scenario.Violation _ -> true | _ -> false)
        report.findings
    with
    | Some f -> f
    | None -> Alcotest.fail "no violation found at n=5 — the bound test lost its teeth"
  in
  let res = Shrink.shrink ~target:finding.verdict finding.scenario in
  Alcotest.(check bool) "<= 3 fault-plan events" true (List.length res.scenario.plan <= 3);
  Alcotest.(check bool) "<= 10 ops per client" true (res.scenario.ops_per_client <= 10);
  Alcotest.(check bool) "execution budget respected" true (res.executions <= 400);
  (* the minimal reproducer really reproduces *)
  match Scenario.execute res.scenario with
  | Error e -> Alcotest.failf "shrunk scenario failed to execute: %s" e
  | Ok r -> (
      match Scenario.verdict_of_run r with
      | Scenario.Violation _ -> ()
      | v ->
          Alcotest.failf "shrunk scenario lost the violation (got %s)"
            (Scenario.verdict_to_string v))

let test_safe_topology_stays_clean () =
  (* n=6 honors the bound: a short campaign over the same mutation
     space must produce zero findings. *)
  let report = Fuzz.run ~base:good_base ~iterations:60 ~seed:5L () in
  List.iter
    (fun (f : Fuzz.finding) ->
      Alcotest.failf "unexpected finding at n=6: %s (step %d)"
        (Scenario.verdict_to_string f.verdict)
        f.step)
    report.findings

let test_budget_stops_early () =
  let report = Fuzz.run ~base:good_base ~iterations:1_000_000 ~budget_s:0.2 ~seed:9L () in
  Alcotest.(check bool) "stopped by budget" true (report.stopped_by = `Budget);
  Alcotest.(check bool) "did some work" true (report.executed > 1)

let test_coverage_signal () =
  match Scenario.execute good_base with
  | Error e -> Alcotest.failf "execute: %s" e
  | Ok r ->
      let c = Coverage.of_events r.events in
      Alcotest.(check bool) "nonempty" true (Coverage.cardinal c > 50);
      (* bigrams present: at least one key embeds a transition arrow *)
      Alcotest.(check bool) "has bigrams" true
        (List.exists (fun k -> String.contains k '>') (Coverage.keys c));
      let into = Coverage.create () in
      let first = Coverage.absorb ~into c in
      Alcotest.(check int) "first absorb adds everything" (Coverage.cardinal c) first;
      Alcotest.(check int) "second absorb adds nothing" 0 (Coverage.absorb ~into c)

(* Satellite (c): the explorer's failure taxonomy distinguishes reader
   starvation from crash-like incompleteness. *)
let test_classify_taxonomy () =
  let sc = { Explorer.seed = 1L; policy = "uniform-10"; strategy = "none"; fault = Explorer.Clean } in
  let kinds fs = List.map (fun (f : Explorer.failure) -> f.kind) fs in
  Alcotest.(check bool) "clean run, no failures" true
    (Explorer.classify ~livelocked:false ~completed_reads:5 ~aborted_reads:0 ~incomplete:0
       ~violations:[] sc
    = []);
  Alcotest.(check bool) "starvation: all reads aborted" true
    (kinds
       (Explorer.classify ~livelocked:false ~completed_reads:0 ~aborted_reads:7 ~incomplete:0
          ~violations:[] sc)
    = [ `Starved ]);
  Alcotest.(check bool) "incompleteness is not starvation" true
    (kinds
       (Explorer.classify ~livelocked:false ~completed_reads:3 ~aborted_reads:1 ~incomplete:2
          ~violations:[] sc)
    = [ `Incomplete ]);
  Alcotest.(check bool) "livelock trumps starvation" true
    (kinds
       (Explorer.classify ~livelocked:true ~completed_reads:0 ~aborted_reads:7 ~incomplete:0
          ~violations:[] sc)
    = [ `Livelock ]);
  Alcotest.(check bool) "violations always reported" true
    (kinds
       (Explorer.classify ~livelocked:false ~completed_reads:0 ~aborted_reads:7 ~incomplete:0
          ~violations:[ "stale" ] sc)
    = [ `Violation "stale"; `Starved ])

(* ---- domain-parallel campaigns --------------------------------- *)

(* Reference implementation of the merge: concatenate per-domain
   corpora in domain order, keeping the first occurrence of each
   scenario. *)
let corpus_union per_domain_corpora =
  let seen = Hashtbl.create 64 in
  List.concat_map
    (List.filter (fun s ->
         if Hashtbl.mem seen s then false
         else begin
           Hashtbl.add seen s ();
           true
         end))
    per_domain_corpora

let test_parallel_equals_sequential () =
  let iterations = 25 in
  List.iter
    (fun domains ->
      let p = Fuzz.run_parallel ~base:good_base ~iterations ~domains ~seed:17L () in
      Alcotest.(check int) "one report per domain" domains (List.length p.per_domain);
      let seq =
        List.init domains (fun i ->
            Fuzz.run ~base:good_base ~iterations ~seed:(Fuzz.domain_seed ~seed:17L i) ())
      in
      List.iteri
        (fun i (dr : Fuzz.domain_report) ->
          Alcotest.(check bool)
            (Printf.sprintf "domain %d of %d: report == single-threaded report" i domains)
            true
            (dr.report = List.nth seq i))
        p.per_domain;
      Alcotest.(check bool) "merged corpus = union of per-domain corpora" true
        (p.merged_corpus = corpus_union (List.map (fun (r : Fuzz.report) -> r.corpus) seq)))
    [ 1; 2; 3 ]

(* Every merged key was minted by some retained run, retained runs are
   in the merged corpus, and execution is deterministic per scenario —
   so re-executing the merged corpus must reconstruct exactly the
   merged coverage. *)
let test_parallel_merged_coverage_reconstructs () =
  let p = Fuzz.run_parallel ~base:good_base ~iterations:20 ~domains:2 ~seed:21L () in
  let u = Coverage.create () in
  List.iter
    (fun s ->
      match Scenario.execute s with
      | Error e -> Alcotest.failf "merged corpus entry failed to execute: %s" e
      | Ok r -> ignore (Coverage.absorb ~into:u (Coverage.of_events r.events) : int))
    p.merged_corpus;
  Alcotest.(check int) "merged coverage = union over merged corpus" (Coverage.cardinal u)
    p.merged_coverage

let qcheck_parallel_corpus_union =
  QCheck.Test.make ~name:"fuzz: merged multi-domain corpus = union of single-domain corpora"
    ~count:5
    QCheck.(pair (int_range 2 3) small_nat)
    (fun (domains, seed0) ->
      let seed = Int64.of_int (seed0 + 1) in
      let iterations = 10 in
      let p = Fuzz.run_parallel ~base:good_base ~iterations ~domains ~seed () in
      let seq =
        List.init domains (fun i ->
            (Fuzz.run ~base:good_base ~iterations ~seed:(Fuzz.domain_seed ~seed i) ()).corpus)
      in
      p.merged_corpus = corpus_union seq)

let test_coverage_cross_domain () =
  match Scenario.execute good_base with
  | Error e -> Alcotest.failf "execute: %s" e
  | Ok r ->
      let here = Coverage.of_events r.events in
      (* the same scenario on another domain reaches the same keys,
         even though that domain minted its own intern ids *)
      let remote =
        Domain.join
          (Domain.spawn (fun () ->
               match Scenario.execute good_base with
               | Ok r -> Coverage.of_events r.events
               | Error e -> failwith e))
      in
      Alcotest.(check (list string)) "same keys across domains" (Coverage.keys here)
        (Coverage.keys remote);
      (* cross-domain absorb translates through strings *)
      let into = Coverage.create () in
      let added = Coverage.absorb ~into remote in
      Alcotest.(check int) "cross-domain absorb adds everything" (Coverage.cardinal remote) added;
      Alcotest.(check int) "nothing further from the local copy" 0 (Coverage.absorb ~into here)

let test_par_map_slices_ordered () =
  let items = Array.init 23 (fun i -> i) in
  let doubled = Sbft_harness.Par.map_slices ~domains:3 items (fun idx v -> (idx, v * 2)) in
  Alcotest.(check int) "length preserved" 23 (Array.length doubled);
  Array.iteri
    (fun i (idx, v) ->
      Alcotest.(check int) "index order preserved" i idx;
      Alcotest.(check int) "value mapped" (2 * i) v)
    doubled

let suite =
  [
    Alcotest.test_case "campaigns are deterministic per seed" `Quick test_campaign_deterministic;
    Alcotest.test_case "parallel: per-domain reports match single-threaded" `Quick
      test_parallel_equals_sequential;
    Alcotest.test_case "parallel: merged coverage reconstructs from merged corpus" `Quick
      test_parallel_merged_coverage_reconstructs;
    QCheck_alcotest.to_alcotest qcheck_parallel_corpus_union;
    Alcotest.test_case "coverage: cross-domain key exchange" `Quick test_coverage_cross_domain;
    Alcotest.test_case "par: map_slices keeps item order" `Quick test_par_map_slices_ordered;
    Alcotest.test_case "mutants stay inside caps and model" `Quick test_mutants_stay_capped;
    Alcotest.test_case "n=5f: fuzz finds a violation, shrink compresses it" `Quick
      test_n5_finds_violation_and_shrinks;
    Alcotest.test_case "n=6: no findings on the safe topology" `Quick test_safe_topology_stays_clean;
    Alcotest.test_case "wall-clock budget stops a campaign" `Quick test_budget_stops_early;
    Alcotest.test_case "coverage: bigrams, absorb gain" `Quick test_coverage_signal;
    Alcotest.test_case "explorer taxonomy: starved vs incomplete" `Quick test_classify_taxonomy;
  ]
