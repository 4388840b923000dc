(* The committed regression corpus: every entry under test/corpus/
   re-executes from its own header and reproduces the checker verdict
   recorded there.  Entries were found by the schedule fuzzer (and
   shrunk); the two theorem1-* entries are live counterexamples
   documenting the n > 5f bound, the rest pin lemmas that must keep
   holding. *)

module Scenario = Sbft_harness.Scenario
module Corpus = Sbft_analysis.Corpus

(* dune copies test/corpus next to the test binary's cwd *)
let corpus_dir = "corpus"

let entries () =
  match Corpus.load_dir corpus_dir with
  | Ok es -> es
  | Error e -> Alcotest.failf "corpus load: %s" e

let test_corpus_present () =
  let es = entries () in
  Alcotest.(check bool) "at least 5 entries" true (List.length es >= 5);
  List.iter
    (fun (e : Corpus.entry) ->
      Alcotest.(check bool)
        (Filename.basename e.path ^ " records a verdict")
        true (e.header.verdict <> "");
      Alcotest.(check bool)
        (Filename.basename e.path ^ " records provenance")
        true (e.header.note <> ""))
    (entries ());
  (* both polarities are represented: passing lemma pins and live
     counterexamples to Theorem 1 *)
  Alcotest.(check bool) "has passing entries" true
    (List.exists (fun (e : Corpus.entry) -> e.header.verdict = "ok") es);
  Alcotest.(check bool) "has violation entries" true
    (List.exists
       (fun (e : Corpus.entry) ->
         String.length e.header.verdict > 9 && String.sub e.header.verdict 0 9 = "violation")
       es)

(* Through the same replay check `sbftreg replay` and `sbftreg corpus`
   use: the verdict must reproduce, and recorded events (when an entry
   carries any) must replay bit-for-bit. *)
let test_corpus_replays () =
  List.iter
    (fun (e : Corpus.entry) ->
      let name = Filename.basename e.path in
      match Scenario.replay e.header e.events with
      | Error msg -> Alcotest.failf "%s: %s" name msg
      | Ok c ->
          Alcotest.(check string)
            (name ^ " reproduces its verdict")
            e.header.verdict
            (Scenario.verdict_to_string c.verdict);
          Alcotest.(check bool) (name ^ " verdict check agrees") true c.verdict_ok;
          if e.events <> [] then
            Alcotest.(check bool)
              (name ^ " replays its events")
              true (c.stream.divergence = None))
    (entries ())

let suite =
  [
    Alcotest.test_case "corpus is present, annotated, two-sided" `Quick test_corpus_present;
    Alcotest.test_case "every entry reproduces its recorded verdict" `Quick test_corpus_replays;
  ]
