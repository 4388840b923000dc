module J = Sbft_sim.Json
module Metrics = Sbft_sim.Metrics

let histogram_json (h : Metrics.hist_snapshot) =
  let pct p = Stats.hist_percentile_sat ~bounds:h.bounds ~counts:h.counts p in
  let p50, sat50 = pct 50.0 and p95, sat95 = pct 95.0 and p99, sat99 = pct 99.0 in
  (* A saturated percentile landed in the overflow bucket: the value is
     only a lower bound.  List which ones, so dashboards can annotate
     instead of silently under-reporting tail latency.  (The diff tool
     only compares numeric leaves, so the marker never trips it.) *)
  let saturated =
    List.filter_map
      (fun (name, sat) -> if sat then Some (J.String name) else None)
      [ ("p50", sat50); ("p95", sat95); ("p99", sat99) ]
  in
  J.Obj
    ([
       ("count", J.Int h.count);
       ("sum", J.Float h.sum);
       ("min", J.Float h.min);
       ("max", J.Float h.max);
       ("mean", J.Float (if h.count = 0 then 0.0 else h.sum /. float_of_int h.count));
       ("p50", J.Float p50);
       ("p95", J.Float p95);
       ("p99", J.Float p99);
     ]
    @ (if saturated = [] then [] else [ ("saturated", J.List saturated) ])
    @ [
        ("bounds", J.List (Array.to_list (Array.map (fun b -> J.Float b) h.bounds)));
        ("counts", J.List (Array.to_list (Array.map (fun c -> J.Int c) h.counts)));
      ])

let schema = "sbft-metrics/2"

let metrics_json ?(run = []) ?stabilization ?alerts ?loadgen ?series
    ?queue_series ?regularity ?telemetry ?shards ?profile ~metrics ~per_node () =
  let counters = List.map (fun (k, v) -> (k, J.Int v)) (Metrics.counters metrics) in
  let histograms = List.map (fun (k, h) -> (k, histogram_json h)) (Metrics.histograms metrics) in
  let nodes =
    J.List
      (List.mapi
         (fun id (sent, delivered) ->
           J.Obj [ ("id", J.Int id); ("sent", J.Int sent); ("delivered", J.Int delivered) ])
         (Array.to_list per_node))
  in
  let base =
    [ ("counters", J.Obj counters); ("histograms", J.Obj histograms); ("per_node", nodes) ]
  in
  let base =
    match regularity with
    | Some (checked, violations) ->
        base @ [ ("regularity", J.Obj [ ("checked", J.Int checked); ("violations", J.Int violations) ]) ]
    | None -> base
  in
  let base =
    match stabilization with
    | Some st -> base @ [ ("stabilization", Stabilization.to_json st) ]
    | None -> base
  in
  let base = match alerts with Some a -> base @ [ ("alerts", Alerts.to_json a) ] | None -> base in
  let base = match loadgen with Some j -> base @ [ ("loadgen", j) ] | None -> base in
  let base =
    match series with
    | Some (shard_series : Sbft_kv.Store.shard_series list) when shard_series <> [] ->
        let queues =
          match queue_series with Some l -> Array.of_list l | None -> [||]
        in
        let per_shard =
          List.mapi
            (fun shard (s : Sbft_kv.Store.shard_series) ->
              J.Obj
                ([
                   ("shard", J.Int shard);
                   ("flow", Sbft_sim.Series.to_json s.Sbft_kv.Store.flow);
                   ("lat", Sbft_sim.Series.to_json s.Sbft_kv.Store.lat);
                 ]
                @
                if shard < Array.length queues then
                  [ ("queue", Sbft_sim.Series.to_json queues.(shard)) ]
                else []))
            shard_series
        in
        let flows = List.map (fun (s : Sbft_kv.Store.shard_series) -> s.Sbft_kv.Store.flow) shard_series in
        let fleet =
          J.List
            (List.map
               (fun (idx, agg) ->
                 match Sbft_sim.Series.Agg.to_json agg with
                 | J.Obj fields -> J.Obj (("index", J.Int idx) :: fields)
                 | other -> other)
               (Sbft_sim.Series.merge_recent flows))
        in
        base @ [ ("series", J.Obj [ ("shards", J.List per_shard); ("fleet", fleet) ]) ]
    | Some _ | None -> base
  in
  let base =
    match telemetry with Some j -> base @ [ ("telemetry", j) ] | None -> base
  in
  let base = match shards with Some j -> base @ [ ("shards", j) ] | None -> base in
  let base = match profile with Some j -> base @ [ ("profile", j) ] | None -> base in
  J.Obj
    ((("schema", J.String schema) :: (if run = [] then [] else [ ("run", J.Obj run) ])) @ base)

let write_file ~path json =
  let oc = open_out path in
  output_string oc (J.to_string json);
  output_char oc '\n';
  close_out oc
