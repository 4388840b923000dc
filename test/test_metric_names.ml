(* The metric-name registry, and a source lint enforcing it: protocol
   code must name counters/histograms via Metric_names, never raw
   string literals.  The lint scans the library sources test/dune
   declares, which dune copies into _build (the test runs from
   _build/default/test). *)

open Sbft_sim

let test_registry () =
  Alcotest.(check bool) "net.sent registered" true (Metric_names.mem Metric_names.net_sent);
  Alcotest.(check bool) "kind-split counters match the prefix" true
    (Metric_names.mem (Metric_names.net_sent_kind_prefix ^ "write_req"));
  Alcotest.(check bool) "unknown name rejected" false (Metric_names.mem "bogus.counter");
  let names = List.map (fun (n, _, _) -> n) Metric_names.all in
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun (n, _, doc) ->
      Alcotest.(check bool) (n ^ " documented") true (String.length doc > 0))
    Metric_names.all

let test_shard_names_hostile_indices () =
  let name shard field = Metric_names.kv_shard ~shard field in
  Alcotest.(check string) "minted name" "kv.shard.7.puts" (name 7 Metric_names.Shard_puts);
  (* hostile shard indices (corrupted state) still mint correct names *)
  List.iter
    (fun shard ->
      List.iter
        (fun f ->
          Alcotest.(check string)
            (Printf.sprintf "out-of-range shard %d" shard)
            (Printf.sprintf "kv.shard.%d.%s" shard (Metric_names.shard_field_name f))
            (name shard f))
        Metric_names.shard_fields)
    [ -1; -1000; 1024; 102_400; max_int ]

(* ------------------------------------------------------------------ *)
(* source lint *)

(* After a [Metrics.incr/add/record/get/observe], the name argument must
   reach a [Metric_names] (or aliased [Names.]) token before any string
   literal.  The scan stops at the statement's [;] or after 200 chars,
   so names passed through variables are accepted. *)
let contains_at s i sub =
  i + String.length sub <= String.length s && String.sub s i (String.length sub) = sub

let literal_name_after s start =
  let stop = min (String.length s) (start + 200) in
  let rec scan i =
    if i >= stop then false
    else if s.[i] = ';' then false
    else if contains_at s i "Metric_names" || contains_at s i "Names." then false
    else if s.[i] = '"' then true
    else scan (i + 1)
  in
  scan start

let lint_file path =
  let src = Test_exports.read_file path in
  let bad = ref [] in
  List.iter
    (fun callee ->
      let len = String.length callee in
      for i = 0 to String.length src - len - 1 do
        if contains_at src i callee && literal_name_after src (i + len) then
          bad := Printf.sprintf "%s: %s with a string literal" path callee :: !bad
      done)
    [ "Metrics.incr"; "Metrics.add"; "Metrics.record"; "Metrics.get"; "Metrics.observe" ];
  !bad

let test_no_raw_metric_literals () =
  let files =
    List.filter
      (fun p -> Filename.basename p <> "metric_names.ml")
      (Test_exports.sources "../lib" ".ml")
  in
  Alcotest.(check bool) "some sources scanned" true (List.length files > 10);
  let bad = List.concat_map lint_file files in
  if bad <> [] then
    Alcotest.failf "raw metric-name literals (use Sbft_sim.Metric_names):\n  %s"
      (String.concat "\n  " bad)

(* Every name the PR-8 streaming layer mints must be in the registry:
   stabilization counters/histograms, per-shard detector names and
   alert rules. *)
let test_streaming_names_registered () =
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " registered") true (Metric_names.mem n))
    [
      Metric_names.stab_shards_stabilized;
      Metric_names.stab_time_to_stabilize_ticks;
      Metric_names.stab_fleet_time_to_stabilize_ticks;
      Metric_names.stab_shard ~shard:0;
      Metric_names.stab_shard ~shard:31;
      Metric_names.alerts Metric_names.alert_rule_slo_burn;
      Metric_names.alerts Metric_names.alert_rule_abort_spike;
      Metric_names.alerts Metric_names.alert_rule_divergence;
      Metric_names.kv_shard ~shard:2 Metric_names.Shard_flow;
      Metric_names.kv_shard ~shard:2 Metric_names.Shard_op_ticks;
    ];
  Alcotest.(check string) "stab shard name shape" "stab.shard.5" (Metric_names.stab_shard ~shard:5);
  List.iter
    (fun shard ->
      Alcotest.(check string)
        (Printf.sprintf "out-of-range stab shard %d" shard)
        (Printf.sprintf "stab.shard.%d" shard)
        (Metric_names.stab_shard ~shard))
    [ -1; 1024; 10_240 ]

let suite =
  [
    Alcotest.test_case "registry" `Quick test_registry;
    Alcotest.test_case "shard names for hostile indices" `Quick test_shard_names_hostile_indices;
    Alcotest.test_case "streaming names registered" `Quick test_streaming_names_registered;
    Alcotest.test_case "no raw metric literals in lib/" `Quick test_no_raw_metric_literals;
  ]
