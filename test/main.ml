(* Test driver: every suite in one alcotest run. *)

let () =
  Alcotest.run "sbft"
    [
      ("rng", Test_rng.suite);
      ("heap", Test_heap.suite);
      ("engine", Test_engine.suite);
      ("schedule", Test_schedule.suite);
      ("metrics+trace", Test_metrics.suite);
      ("metric-names", Test_metric_names.suite);
      ("tracing-levels", Test_tracing_levels.suite);
      ("slo+profile", Test_slo.suite);
      ("json", Test_json.suite);
      ("observability", Test_observability.suite);
      ("series+detector", Test_series.suite);
      ("analysis", Test_analysis.suite);
      ("spans+trends", Test_spans.suite);
      ("replay", Test_replay.suite);
      ("network", Test_network.suite);
      ("lossy", Test_lossy.suite);
      ("datalink", Test_datalink.suite);
      ("sbls", Test_sbls.suite);
      ("timestamps", Test_mw_ts.suite);
      ("wtsg", Test_wtsg.suite);
      ("read-labels", Test_read_labels.suite);
      ("spec", Test_spec.suite);
      ("checker-props", Test_checker_props.suite);
      ("checker-equiv", Test_regularity_equiv.suite);
      ("cyclic", Test_cyclic.suite);
      ("server", Test_server.suite);
      ("system", Test_system.suite);
      ("stabilization", Test_stabilization.suite);
      ("lemmas", Test_lemmas.suite);
      ("theorem1", Test_theorem1.suite);
      ("baselines", Test_baselines.suite);
      ("harness", Test_harness.suite);
      ("extensions", Test_extensions.suite);
      ("full-stack", Test_full_stack.suite);
      ("kv-store", Test_kv.suite);
      ("kv-session", Test_kv_session.suite);
      ("faults+monitor", Test_faults.suite);
      ("partition", Test_partition.suite);
      ("flow", Test_flow.suite);
      ("report", Test_report.suite);
      ("misc", Test_misc.suite);
      ("determinism", Test_determinism.suite);
      ("golden-tables", Test_golden_tables.suite);
      ("resilience-f2", Test_f2.suite);
      ("fault-plan", Test_fault_plan.suite);
      ("fuzz+shrink", Test_fuzz.suite);
      ("corpus", Test_corpus.suite);
      ("label-props", Test_label_props.suite);
      ("metamorphic", Test_metamorphic.suite);
      ("loadgen", Test_loadgen.suite);
      ("mutation", Test_mutation.suite);
      ("cli", Test_cli.suite);
    ]
