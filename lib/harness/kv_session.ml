module Engine = Sbft_sim.Engine
module Trace = Sbft_sim.Trace
module Profile = Sbft_sim.Profile
module J = Sbft_sim.Json
module Store = Sbft_kv.Store
module System = Sbft_core.System

type spec = {
  shards : int;
  n : int;
  f : int;
  seed : int64;
  keys : int;
  ops : int;
  clients : int;
  doom : bool;
  fault_at : int option;
  fault_shards : int;
  zipf : float;
  window : int;
  stab_k : int;
  trace_level : Trace.level;
  sample : float;
  profile : bool;
  slo : Slo.target;
  arrival : Loadgen.arrival option;
  duration : int;
  mix : float;
  total_ops : int option;
  max_queue : int;
}

let default =
  {
    shards = 4;
    n = 6;
    f = 1;
    seed = 42L;
    keys = 8;
    ops = 30;
    clients = 3;
    doom = false;
    fault_at = None;
    fault_shards = 1;
    zipf = Workload.default_kv.zipf_s;
    window = 50;
    stab_k = 3;
    trace_level = Trace.On;
    sample = 0.01;
    profile = false;
    slo = Slo.default_target;
    arrival = None;
    duration = 2000;
    mix = 0.3;
    total_ops = None;
    max_queue = 1024;
  }

(* Ticks into the session at which [doom] strikes. *)
let doom_time = 300

(* The first value a session writes; the preload writes 1000 + key index. *)
let value_base = 2000

let loadgen_spec s arrival =
  {
    Loadgen.mode = Open_loop arrival;
    duration = s.duration;
    ops = s.total_ops;
    write_ratio = s.mix;
    keys = s.keys;
    zipf_s = s.zipf;
    value_base;
    max_queue = s.max_queue;
  }

let loadgen_flag = function
  | Loadgen.Invalid_rate _ | Rate_unrepresentable _ | Invalid_arrival _ -> "--arrival"
  | Invalid_duration _ -> "--duration"
  | Invalid_mix _ -> "--mix"
  | Invalid_queue_cap _ -> "--max-queue"
  | Invalid_keys _ -> "--keys"
  | Invalid_zipf _ -> "--zipf"

let validate s =
  let fail fmt = Printf.ksprintf Option.some fmt in
  let at_least lo flag v =
    if v >= lo then None else fail "%s must be at least %d (got %d)" flag lo v
  in
  let fraction flag v =
    if v >= 0.0 && v <= 1.0 then None else fail "%s must lie in [0, 1] (got %g)" flag v
  in
  let loadgen e = fail "%s: %s" (loadgen_flag e) (Loadgen.error_to_string e) in
  let problem =
    List.find_map Fun.id
      [
        at_least 1 "--shards" s.shards;
        at_least 0 "-f" s.f;
        (if s.n > 5 * s.f then None
         else fail "-n %d must exceed 5f = %d (-f %d)" s.n (5 * s.f) s.f);
        at_least 1 "--clients" s.clients;
        at_least 1 "--keys" s.keys;
        at_least 0 "--ops" s.ops;
        Option.bind s.total_ops (at_least 0 "--total-ops");
        Option.bind s.fault_at (at_least 1 "--fault-at");
        (if s.fault_shards >= 1 && s.fault_shards <= s.shards then None
         else fail "--fault-shards must lie in [1, %d] (got %d)" s.shards s.fault_shards);
        at_least 0 "--window" s.window;
        at_least 1 "--stab-k" s.stab_k;
        fraction "--sample" s.sample;
        (if s.slo.p99_ticks >= 0.0 then None
         else fail "--slo-p99 must be a non-negative number of ticks (got %g)" s.slo.p99_ticks);
        fraction "--slo-error-budget" s.slo.error_budget;
        (if Float.is_nan s.zipf || s.zipf < 0.0 then loadgen (Invalid_zipf s.zipf) else None);
        Option.bind s.arrival (fun a ->
            match Loadgen.validate (loadgen_spec s a) with Ok () -> None | Error e -> loadgen e);
      ]
  in
  match problem with None -> Ok () | Some p -> Error p

type session = {
  store : Store.t;
  stabilization : Stabilization.t;
  alerts : Alerts.t option;
  doomed : (int * int) option;
  faulted : (int * int) option;
}

type workload = Closed of Workload.kv_outcome | Open of Loadgen.spec * Loadgen.outcome

type outcome = {
  session : session;
  workload : workload;
  checked : int;
  violations : int;
  slo : Slo.report;
  profile : Profile.report option;
}

let run ~on_store ~on_start s =
  Result.map
    (fun () ->
      let store =
        Store.create ~seed:s.seed ~trace_level:s.trace_level ~sample:s.sample
          ?series_window:(if s.window > 0 then Some s.window else None)
          ~shards:s.shards ~n:s.n ~f:s.f ~clients:s.clients ()
      in
      let engine = Store.engine store in
      let prof = Engine.profile engine in
      if s.profile then begin
        Profile.enable prof;
        Trace.add_sink (Engine.trace engine) (Profile.event_sink prof)
      end;
      on_store store;
      let keys = Array.init s.keys (Printf.sprintf "key-%d") in
      Array.iteri
        (fun i key -> Store.put store ~client:(i mod s.clients) ~key ~value:(1000 + i) ())
        keys;
      Store.quiesce store;
      let start = Engine.now engine in
      let doomed =
        if not s.doom then None
        else begin
          let shard = Store.shard_of_key store keys.(0) in
          Engine.schedule engine ~delay:doom_time (fun () ->
              Store.apply_to_shard store ~shard (fun sys ->
                  ignore (Sbft_byz.Strategy.install_all sys Sbft_byz.Strategies.equivocate);
                  System.corrupt_everything sys ~severity:`Heavy));
          Some (shard, start + doom_time)
        end
      in
      let faulted =
        Option.map
          (fun t ->
            Engine.schedule engine ~delay:t (fun () ->
                for shard = 0 to s.fault_shards - 1 do
                  Store.apply_to_shard store ~shard (fun sys ->
                      System.corrupt_everything sys ~severity:`Heavy)
                done);
            (s.fault_shards, start + t))
          s.fault_at
      in
      (* The detector epoch and the audit cutoff: the last scheduled
         fault, or 0 when none is. *)
      let fault_after =
        List.fold_left max 0 (List.filter_map (Option.map snd) [ doomed; faulted ])
      in
      let stabilization =
        Stabilization.attach ~k:s.stab_k
          ~window:(if s.window > 0 then s.window else 50)
          ~after:fault_after store
      in
      let alerts =
        if Store.series_enabled store then Some (Alerts.attach ~slo:s.slo store) else None
      in
      let session = { store; stabilization; alerts; doomed; faulted } in
      on_start session;
      let workload =
        match s.arrival with
        | None ->
            Closed
              (Workload.run_kv
                 ~spec:
                   {
                     kv_ops_per_client = s.ops;
                     kv_write_ratio = 0.3;
                     kv_think_max = 25;
                     kv_value_base = value_base;
                     keys = s.keys;
                     zipf_s = s.zipf;
                   }
                 store)
        | Some a ->
            let spec = loadgen_spec s a in
            Open (spec, Loadgen.run ~spec store)
      in
      let now = Engine.now engine in
      Stabilization.finalize stabilization ~now;
      Option.iter (fun a -> Alerts.finalize a ~now) alerts;
      Store.roll_series_to store ~time:now;
      let checked, violations = Store.check_regular ~after:fault_after store in
      {
        session;
        workload;
        checked;
        violations;
        slo = Slo.evaluate ~target:s.slo ~shards:s.shards (Engine.metrics engine);
        profile = (if s.profile then Some (Profile.report prof) else None);
      })
    (validate s)

let metrics_json s r =
  let store = r.session.store in
  let engine = Store.engine store in
  let run =
    [
      ("cmd", J.String "kv");
      ("shards", J.Int s.shards);
      ("n", J.Int s.n);
      ("f", J.Int s.f);
      ("clients", J.Int s.clients);
      ("seed", J.String (Int64.to_string s.seed));
      ("keys", J.Int s.keys);
      ("ops_per_client", J.Int s.ops);
      ("zipf", J.Float s.zipf);
      ("window", J.Int s.window);
      ("stab_k", J.Int s.stab_k);
      ("doom", J.Bool s.doom);
      ("fault_at", match s.fault_at with Some t -> J.Int t | None -> J.Null);
      ("fault_shards", J.Int s.fault_shards);
      ("trace_level", J.String (Trace.level_to_string s.trace_level));
      ("ops_issued", J.Int (Store.ops_issued store));
      ("vtime", J.Int (Engine.now engine));
      ("events_fired", J.Int (Engine.events_fired engine));
    ]
  in
  let run, loadgen, queue_series =
    match r.workload with
    | Closed _ -> (run, None, None)
    | Open (spec, o) ->
        let (Open_loop a) = spec.mode in
        ( run
          @ [
              ("arrival", J.String (Loadgen.arrival_to_string a));
              ("duration", J.Int spec.duration);
              ("mix_write_ratio", J.Float spec.write_ratio);
              ("max_queue", J.Int spec.max_queue);
              ("total_ops", match spec.ops with Some n -> J.Int n | None -> J.Null);
            ],
          Some (Loadgen.to_json ~spec o),
          if Array.length o.queue_series > 0 then Some (Array.to_list o.queue_series) else None )
  in
  Artifacts.metrics_json ~run ~regularity:(r.checked, r.violations)
    ~stabilization:r.session.stabilization ?alerts:r.session.alerts ?loadgen
    ?series:(if Store.series_enabled store then Some (Store.all_series store) else None)
    ?queue_series ~shards:(Slo.to_json r.slo)
    ?profile:(Option.map Profile.to_json r.profile)
    ~metrics:(Engine.metrics engine) ~per_node:[||] ()
