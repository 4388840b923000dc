module Engine = Sbft_sim.Engine
module Metrics = Sbft_sim.Metrics
module Trace = Sbft_sim.Trace
module Event = Sbft_sim.Event
module Names = Sbft_sim.Metric_names
module Series = Sbft_sim.Series
module System = Sbft_core.System
module Config = Sbft_core.Config
module History = Sbft_spec.History

type outcome = History.read_outcome

type shard_series = { flow : Series.t; lat : Series.t }

type observer = shard:int -> time:int -> ok:bool -> ticks:int -> unit

(* One shard's completion counters and latency histograms under
   [kv.shard.<i>.*], resolved at their first sample: a metric appears
   exactly when its shard first records it, and a completion hashes no
   metric name. *)
type shard_meters = {
  puts : Metrics.counter Lazy.t;
  put_ticks : Metrics.hist Lazy.t;
  gets : Metrics.counter Lazy.t;
  get_ticks : Metrics.hist Lazy.t;
  aborts : Metrics.counter Lazy.t;
}

type t = {
  engine : Engine.t;
  delay : Sbft_channel.Delay.t;
  transport : Sbft_channel.Network.transport option;
  shards : int;
  n : int;
  f : int;
  clients : int;
  systems : (string, System.t) Hashtbl.t; (* key -> its register deployment *)
  shard_hooks : (int, (System.t -> unit) list ref) Hashtbl.t;
  series : shard_series array; (* empty when streaming series are off *)
  meters : shard_meters array;
  mutable observers : observer list;
  mutable ops : int;
}

let series_keep = 64

let create ?(seed = 42L) ?(delay = Sbft_channel.Delay.uniform ~max:10) ?trace_level ?sample
    ?transport ?series_window ~shards ~n ~f ~clients () =
  if shards < 1 then invalid_arg "Store.create: need at least one shard";
  (* Validate the per-shard register parameters once, eagerly. *)
  ignore (Config.make ~n ~f ~clients ());
  let engine = Engine.create ?trace_level ?sample ~seed () in
  let series =
    match series_window with
    | None -> [||]
    | Some w ->
        if w < 1 then invalid_arg "Store.create: series_window must be positive";
        (* Eager allocation: a shard that never completes an op still
           contributes (empty = clean) windows to the fleet rollup. *)
        Array.init shards (fun shard ->
            {
              flow =
                Series.create ~keep:series_keep ~window:w
                  ~name:(Names.kv_shard ~shard Names.Shard_flow)
                  ();
              lat =
                Series.create ~keep:series_keep ~quantiles:true ~window:w
                  ~name:(Names.kv_shard ~shard Names.Shard_op_ticks)
                  ();
            })
  in
  {
    engine;
    delay;
    transport;
    shards;
    n;
    f;
    clients;
    systems = Hashtbl.create 32;
    shard_hooks = Hashtbl.create 8;
    series;
    meters =
      (let m = Engine.metrics engine in
       Array.init shards (fun shard ->
           let counter s = lazy (Metrics.counter m (Names.kv_shard ~shard s))
           and hist s = lazy (Metrics.hist m (Names.kv_shard ~shard s)) in
           {
             puts = counter Names.Shard_puts;
             put_ticks = hist Names.Shard_put_ticks;
             gets = counter Names.Shard_gets;
             get_ticks = hist Names.Shard_get_ticks;
             aborts = counter Names.Shard_aborts;
           }));
    observers = [];
    ops = 0;
  }

let shard_count t = t.shards

let client_count t = t.clients

(* FNV-1a (63-bit), folded into the shard count. *)
let shard_of_key t key =
  let h = ref 0x3bf29ce484222325 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    key;
  abs !h mod t.shards

let engine t = t.engine

let hooks_for t shard =
  match Hashtbl.find_opt t.shard_hooks shard with
  | Some r -> r
  | None ->
      let r = ref [] in
      Hashtbl.add t.shard_hooks shard r;
      r

let system_for t key =
  match Hashtbl.find_opt t.systems key with
  | Some sys -> sys
  | None ->
      let cfg = Config.make ~n:t.n ~f:t.f ~clients:t.clients () in
      let sys = System.create ~engine:t.engine ~delay:t.delay ?transport:t.transport cfg in
      Hashtbl.add t.systems key sys;
      (* Replay the shard's fault history onto the new key register:
         physical co-residency means a compromised shard is compromised
         for every key it hosts. *)
      List.iter (fun hook -> hook sys) (List.rev !(hooks_for t (shard_of_key t key)));
      sys

let endpoint t client =
  if client < 0 || client >= t.clients then invalid_arg "Store: bad client index";
  t.n + client

(* The store is the only layer that knows an operation's shard, so it
   tags the span at invocation; [Spans] then groups ops by shard. *)
let tag_shard t ~shard sid =
  let tr = Engine.trace t.engine in
  if Trace.admits tr ~span:sid then
    Trace.emit tr ~time:(Engine.now t.engine) (Event.Span_tag { span = sid; tag = "shard"; v = shard })

(* Streaming hook: every op completion feeds the shard's flow series
   (1.0 = abort, 0.0 = success — so a window's count is its op volume
   and its mean is its abort rate), its latency series, and any
   registered observer (the harness stabilization detector).  Driven by
   completions and the virtual clock only, never the trace, so the
   numbers are identical across trace levels and under replay. *)
let completed t ~shard ~ok ~ticks =
  let time = Engine.now t.engine in
  if Array.length t.series > 0 then begin
    let s = t.series.(shard) in
    Series.observe s.flow ~time (if ok then 0.0 else 1.0);
    if ok then Series.observe s.lat ~time (float_of_int ticks)
  end;
  List.iter (fun f -> f ~shard ~time ~ok ~ticks) t.observers

let add_observer t f = t.observers <- t.observers @ [ f ]

let series_enabled t = Array.length t.series > 0

let series_window t =
  if Array.length t.series = 0 then None else Some (Series.window t.series.(0).flow)

let shard_series t shard =
  if Array.length t.series = 0 then None else Some t.series.(shard)

let all_series t = Array.to_list t.series

let roll_series_to t ~time =
  Array.iter
    (fun s ->
      Series.roll_to s.flow ~time;
      Series.roll_to s.lat ~time)
    t.series

let put t ~client ~key ~value ?(k = fun () -> ()) () =
  t.ops <- t.ops + 1;
  let shard = shard_of_key t key in
  let meters = t.meters.(shard) in
  let started = Engine.now t.engine in
  System.write (system_for t key) ~client:(endpoint t client) ~value
    ~span_k:(fun sid -> tag_shard t ~shard sid)
    ~k:(fun () ->
      let ticks = Engine.now t.engine - started in
      Metrics.counter_incr (Lazy.force meters.puts);
      Metrics.hist_record (Lazy.force meters.put_ticks) (float_of_int ticks);
      completed t ~shard ~ok:true ~ticks;
      k ())
    ()

let get t ~client ~key ?(k = fun _ -> ()) () =
  t.ops <- t.ops + 1;
  let shard = shard_of_key t key in
  let meters = t.meters.(shard) in
  let started = Engine.now t.engine in
  System.read (system_for t key) ~client:(endpoint t client)
    ~span_k:(fun sid -> tag_shard t ~shard sid)
    ~k:(fun outcome ->
      let ticks = Engine.now t.engine - started in
      (match outcome with
      | History.Value _ ->
          Metrics.counter_incr (Lazy.force meters.gets);
          Metrics.hist_record (Lazy.force meters.get_ticks) (float_of_int ticks);
          completed t ~shard ~ok:true ~ticks
      | History.Abort ->
          Metrics.counter_incr (Lazy.force meters.aborts);
          completed t ~shard ~ok:false ~ticks
      | History.Incomplete -> ());
      k outcome)
    ()

let quiesce ?(max_events = 50_000_000) t = Engine.run ~max_events t.engine

let apply_to_shard t ~shard hook =
  let r = hooks_for t shard in
  r := hook :: !r;
  Hashtbl.iter (fun key sys -> if shard_of_key t key = shard then hook sys) t.systems

let corrupt_everything t ~severity =
  for shard = 0 to t.shards - 1 do
    apply_to_shard t ~shard (fun sys -> System.corrupt_everything sys ~severity)
  done

let check_regular ?(after = 0) t =
  Hashtbl.fold
    (fun _key sys (checked, violations) ->
      let h = System.history sys in
      (* The pseudo-stabilization suffix for this key starts at its
         first write that both began and completed from [after] on —
         a write already in flight when a fault struck may have been
         disturbed by it. *)
      let scrub =
        List.fold_left
          (fun acc op ->
            match op with
            | History.Write { inv; resp = Some r; _ } when inv >= after -> min acc r
            | _ -> acc)
          max_int (History.ops h)
      in
      let r = Sbft_spec.Regularity.check ~after:scrub ~ts_prec:Sbft_labels.Mw_ts.prec h in
      (checked + r.checked_reads, violations + List.length r.violations))
    t.systems (0, 0)

let keys_touched t =
  Hashtbl.fold (fun key _ acc -> key :: acc) t.systems [] |> List.sort String.compare

let ops_issued t = t.ops

let pp_stats fmt t =
  let msgs = Sbft_sim.Metrics.get (Engine.metrics t.engine) Sbft_sim.Metric_names.net_sent in
  Format.fprintf fmt "shards=%d keys=%d ops=%d messages=%d vtime=%d" t.shards
    (Hashtbl.length t.systems) t.ops msgs (Engine.now t.engine)
