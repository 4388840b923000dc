module Engine = Sbft_sim.Engine
module Metrics = Sbft_sim.Metrics
module Names = Sbft_sim.Metric_names
module Series = Sbft_sim.Series
module Trace = Sbft_sim.Trace
module Event = Sbft_sim.Event
module Store = Sbft_kv.Store
module J = Sbft_sim.Json

(* Streaming anomaly rules over the store's per-shard series, evaluated
   window by window on an [Engine.every] probe (as Progress and
   Telemetry are: it draws no randomness and reads but never writes
   simulation state, so attaching the ruleset cannot change a run's
   history).

   Three rules, all over the flow series (count = ops, mean = abort
   rate) of one closed window:
   - slo_burn: the window burned the SLO error budget at >= threshold x
     the sustainable rate (Slo.window_burn);
   - abort_spike: the window's abort rate jumped over a trailing
     baseline of the same shard;
   - divergence: the shard's abort rate strayed from the fleet median
     for that window — the "one shard is sick" signal.

   Firings are edge-triggered per (rule, shard): one Alert event and
   one counter bump when the rule starts firing, nothing while it keeps
   firing, cleared when the condition goes away. *)

(* Rule thresholds. *)
let burn_threshold = 2.0 (* fire at >= this multiple of budget burn *)
and spike_factor = 3.0 (* fire at >= this multiple of the baseline rate *)
and spike_min_rate = 0.2 (* ...but never below this absolute rate *)
and divergence_delta = 0.25 (* fire at >= this distance from the median *)
and min_ops = 8 (* windows with fewer ops are never judged *)
and baseline_windows = 8 (* trailing windows feeding the spike baseline *)

type firing = { rule : string; shard : int; window_index : int; detail : string }

type t = {
  store : Store.t;
  slo : Slo.target;
  window : int;
  active : (string * int, firing) Hashtbl.t;
  mutable fired : int; (* rising edges, all rules *)
  mutable log : firing list; (* newest first *)
  mutable last_eval : int; (* last evaluated window index *)
}

let severity_of rule =
  if rule = Names.alert_rule_slo_burn then "critical" else "warning"

let fire t ~rule ~shard ~idx ~detail =
  let key = (rule, shard) in
  if not (Hashtbl.mem t.active key) then begin
    let f = { rule; shard; window_index = idx; detail } in
    Hashtbl.replace t.active key f;
    t.fired <- t.fired + 1;
    t.log <- f :: t.log;
    let engine = Store.engine t.store in
    Metrics.incr (Engine.metrics engine) (Names.alerts rule);
    let tr = Engine.trace engine in
    if Trace.admits tr ~span:Event.no_span then
      Trace.emit tr ~time:(Engine.now engine)
        (Event.Alert { shard; rule; severity = severity_of rule; detail; window = idx })
  end

let clear t ~rule ~shard = Hashtbl.remove t.active (rule, shard)

let set t ~rule ~shard ~idx ~firing ~detail =
  if firing then fire t ~rule ~shard ~idx ~detail else clear t ~rule ~shard

(* One shard's view of window [idx]: the window itself plus a trailing
   baseline aggregated over the preceding [baseline_windows]. *)
let shard_window (s : Store.shard_series) idx =
  let recent = Series.recent s.flow () in
  let cur =
    match List.assoc_opt idx recent with Some a -> a | None -> Series.Agg.empty ()
  in
  let base_ops = ref 0 and base_aborts = ref 0.0 in
  List.iter
    (fun (i, (a : Series.Agg.t)) ->
      if i < idx && i >= idx - baseline_windows then begin
        base_ops := !base_ops + a.Series.Agg.count;
        base_aborts := !base_aborts +. a.Series.Agg.sum
      end)
    recent;
  let baseline_rate =
    if !base_ops = 0 then 0.0 else !base_aborts /. float_of_int !base_ops
  in
  (cur, baseline_rate)

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
      let n = List.length sorted in
      let nth i = List.nth sorted i in
      if n mod 2 = 1 then nth (n / 2) else (nth ((n / 2) - 1) +. nth (n / 2)) /. 2.0

let eval_index t idx =
  let series = Array.of_list (Store.all_series t.store) in
  let views = Array.map (fun s -> shard_window s idx) series in
  let rates =
    Array.to_list views
    |> List.filter_map (fun ((a : Series.Agg.t), _) ->
           if a.Series.Agg.count >= min_ops then Some (Series.Agg.mean a) else None)
  in
  let fleet_median = median rates in
  Array.iteri
    (fun shard ((a : Series.Agg.t), baseline_rate) ->
      let ops = a.Series.Agg.count in
      let aborts = int_of_float (a.Series.Agg.sum +. 0.5) in
      let rate = Series.Agg.mean a in
      let enough = ops >= min_ops in
      let burn = Slo.window_burn ~target:t.slo ~ops ~aborts in
      set t ~rule:Names.alert_rule_slo_burn ~shard ~idx
        ~firing:(enough && burn >= burn_threshold)
        ~detail:(Printf.sprintf "burn %.1fx budget (%d/%d aborted)" burn aborts ops);
      let spike_floor = Float.max spike_min_rate (spike_factor *. baseline_rate) in
      set t ~rule:Names.alert_rule_abort_spike ~shard ~idx
        ~firing:(enough && rate > 0.0 && rate >= spike_floor)
        ~detail:
          (Printf.sprintf "abort rate %.0f%% vs trailing %.0f%%" (100.0 *. rate)
             (100.0 *. baseline_rate));
      set t ~rule:Names.alert_rule_divergence ~shard ~idx
        ~firing:(enough && Float.abs (rate -. fleet_median) >= divergence_delta)
        ~detail:
          (Printf.sprintf "abort rate %.0f%% vs fleet median %.0f%%" (100.0 *. rate)
             (100.0 *. fleet_median)))
    views

let evaluate_to t ~now =
  Store.roll_series_to t.store ~time:now;
  let latest = (now / t.window) - 1 in
  if latest > t.last_eval then begin
    (* Never further back than the series ring can answer. *)
    let from = max (t.last_eval + 1) (latest - Store.series_keep + 1) in
    for idx = from to latest do
      eval_index t idx
    done;
    t.last_eval <- latest
  end

let attach ~slo store =
  if not (Store.series_enabled store) then
    invalid_arg "Alerts.attach: store was created without series_window";
  let window =
    match Store.shard_series store 0 with
    | Some s -> Series.window s.Store.flow
    | None -> invalid_arg "Alerts.attach: no shards"
  in
  let t =
    {
      store;
      slo;
      window;
      active = Hashtbl.create 16;
      fired = 0;
      log = [];
      last_eval = -1;
    }
  in
  let engine = Store.engine store in
  Engine.every engine ~period:window (fun () -> evaluate_to t ~now:(Engine.now engine));
  t

let finalize t ~now = evaluate_to t ~now

let active t =
  Hashtbl.fold (fun _ f acc -> f :: acc) t.active []
  |> List.sort (fun a b -> compare (a.shard, a.rule) (b.shard, b.rule))

let fired t = t.fired

let log t = List.rev t.log

let firing_json f =
  J.Obj
    [
      ("rule", J.String f.rule);
      ("shard", J.Int f.shard);
      ("window", J.Int f.window_index);
      ("severity", J.String (severity_of f.rule));
      ("detail", J.String f.detail);
    ]

let to_json t =
  J.Obj
    [
      ("fired", J.Int t.fired);
      ("active", J.List (List.map firing_json (active t)));
      ("log", J.List (List.map firing_json (log t)));
    ]

let pp fmt t =
  let act = active t in
  if act = [] then Format.fprintf fmt "alerts: %d fired, none active" t.fired
  else begin
    Format.fprintf fmt "@[<v>alerts: %d fired, %d active@," t.fired (List.length act);
    List.iter
      (fun f ->
        Format.fprintf fmt "  [%s] shard %d %s: %s (window %d)@," (severity_of f.rule)
          f.shard f.rule f.detail f.window_index)
      act;
    Format.fprintf fmt "@]"
  end
