module Engine = Sbft_sim.Engine
module Metrics = Sbft_sim.Metrics
module History = Sbft_spec.History

type t = {
  sys : System.t;
  mutable writes_checked : int;
  mutable min_coverage : int;
  mutable coverage_failures : int;
  mutable reads_checked : int;
  mutable post_stab_aborts : int;
  mutable stabilized_since : int option;
      (* completion time of the first monitored write after the last
         corruption; None while waiting for one *)
  mutable last_corruption : int;
  mutable regularity_violations : int;
}

type report = {
  writes_checked : int;
  min_coverage : int;
  coverage_failures : int;
  reads_checked : int;
  post_stab_aborts : int;
  retries : int;
  regularity_violations : int;
}

let create sys =
  {
    sys;
    writes_checked = 0;
    min_coverage = max_int;
    coverage_failures = 0;
    reads_checked = 0;
    post_stab_aborts = 0;
    stabilized_since = None;
    last_corruption = 0;
    regularity_violations = 0;
  }

let bound t = (3 * (System.config t.sys).f) + 1

let write t ~client ~value ?(k = fun () -> ()) () =
  let started = Engine.now (System.engine t.sys) in
  System.write t.sys ~client ~value
    ~k:(fun () ->
      (* Lemma 2, at the completion instant. *)
      t.writes_checked <- t.writes_checked + 1;
      (match Client.last_write_ts (System.client t.sys client) with
      | Some ts ->
          let held = System.count_holding t.sys ~value ~ts in
          t.min_coverage <- min t.min_coverage held;
          if held < bound t then t.coverage_failures <- t.coverage_failures + 1
      | None -> t.coverage_failures <- t.coverage_failures + 1);
      (* A write that began after the last corruption and completed is
         the stabilization point. *)
      if started >= t.last_corruption && t.stabilized_since = None then
        t.stabilized_since <- Some (Engine.now (System.engine t.sys));
      k ())
    ()

let read t ~client ?(k = fun _ -> ()) () =
  let started = Engine.now (System.engine t.sys) in
  System.read t.sys ~client
    ~k:(fun outcome ->
      t.reads_checked <- t.reads_checked + 1;
      (match outcome, t.stabilized_since with
      | History.Abort, Some stab when started >= stab ->
          t.post_stab_aborts <- t.post_stab_aborts + 1
      | _ -> ());
      k outcome)
    ()

let notify_corruption t =
  t.last_corruption <- Engine.now (System.engine t.sys);
  t.stabilized_since <- None

let retries t =
  Metrics.get (Engine.metrics (System.engine t.sys)) Sbft_sim.Metric_names.client_write_retries

let report (t : t) =
  {
    writes_checked = t.writes_checked;
    min_coverage = t.min_coverage;
    coverage_failures = t.coverage_failures;
    reads_checked = t.reads_checked;
    post_stab_aborts = t.post_stab_aborts;
    retries = retries t;
    regularity_violations = t.regularity_violations;
  }

let check (t : t) =
  let after = match t.stabilized_since with Some s -> s | None -> max_int in
  let r =
    Sbft_spec.Regularity.check ~after ~ts_prec:Sbft_labels.Mw_ts.prec (System.history t.sys)
  in
  t.regularity_violations <- List.length r.violations;
  report t

let ok r = r.coverage_failures = 0 && r.post_stab_aborts = 0 && r.regularity_violations = 0

let pp_report fmt r =
  Format.fprintf fmt
    "writes=%d (min coverage %s, %d failures)  reads=%d (%d post-stab aborts)  retries=%d  \
     violations=%d"
    r.writes_checked
    (if r.min_coverage = max_int then "-" else string_of_int r.min_coverage)
    r.coverage_failures r.reads_checked r.post_stab_aborts r.retries r.regularity_violations
