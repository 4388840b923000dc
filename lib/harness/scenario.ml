module Engine = Sbft_sim.Engine
module Trace = Sbft_sim.Trace
module Event = Sbft_sim.Event
module Delay = Sbft_channel.Delay
module Config = Sbft_core.Config
module System = Sbft_core.System
module History = Sbft_spec.History
module Strategy = Sbft_byz.Strategy
module Strategies = Sbft_byz.Strategies
module Fault_plan = Sbft_byz.Fault_plan
module Regularity = Sbft_spec.Regularity
module Run_header = Sbft_analysis.Run_header

type t = {
  n : int;
  f : int;
  clients : int;
  seed : int64;
  ops_per_client : int;
  write_ratio : float;
  strategy : string option;
  corrupt : bool;
  delay : string;
  plan : Fault_plan.t;
  trace_cap : int;
  snapshot_every : int;
}

let policies =
  [
    ("uniform-2", Delay.uniform ~max:2);
    ("uniform-10", Delay.uniform ~max:10);
    ("uniform-50", Delay.uniform ~max:50);
    ("bimodal", Delay.bimodal ~fast:3 ~slow:60 ~slow_prob:0.1);
    ("skew-2-slow", Delay.skew ~fast_max:5 ~slow_max:80 ~slow_nodes:[ 0; 1 ]);
  ]

let default =
  {
    n = 6;
    f = 1;
    clients = 4;
    seed = 42L;
    ops_per_client = 25;
    write_ratio = 0.3;
    strategy = None;
    corrupt = false;
    delay = Run_header.default_delay_policy;
    plan = [];
    trace_cap = 4096;
    snapshot_every = 50;
  }

let to_header ?(fingerprint = "") ?(verdict = "") ?(note = "")
    ?(trace_level = Run_header.default_trace_level) t =
  Run_header.make ~strategy:t.strategy ~corrupt:t.corrupt ~delay_policy:t.delay
    ~plan:(Fault_plan.to_strings t.plan) ~verdict ~note ~trace_cap:t.trace_cap
    ~snapshot_every:t.snapshot_every ~trace_level ~fingerprint ~seed:t.seed ~n:t.n ~f:t.f
    ~clients:t.clients ~ops_per_client:t.ops_per_client ~write_ratio:t.write_ratio ()

(* The first out-of-range parameter as (header field, flag, problem).
   n <= 5f stays legal: the Theorem-1 demonstrations run below the
   bound. *)
let problem t =
  let check ok field flag want got =
    if ok then None else Some (field, flag, Printf.sprintf "must be %s (got %s)" want got)
  in
  let at_least lo field flag v =
    check (v >= lo) field flag (Printf.sprintf "at least %d" lo) (string_of_int v)
  in
  List.find_map Fun.id
    [
      at_least 1 "n" "-n" t.n;
      at_least 0 "f" "-f" t.f;
      at_least 1 "clients" "--clients" t.clients;
      at_least 0 "ops_per_client" "--ops" t.ops_per_client;
      check
        (t.write_ratio >= 0.0 && t.write_ratio <= 1.0)
        "write_ratio" "--write-ratio" "in [0, 1]" (Printf.sprintf "%g" t.write_ratio);
      at_least 1 "trace_cap" "--trace-cap" t.trace_cap;
      at_least 0 "snapshot_every" "--snapshot-every" t.snapshot_every;
    ]

let validate t =
  match problem t with None -> Ok () | Some (_, flag, p) -> Error (flag ^ " " ^ p)

let of_header (h : Run_header.t) =
  match Fault_plan.of_strings h.plan with
  | Error _ as e -> e
  | Ok plan -> (
      let t =
        {
          n = h.n;
          f = h.f;
          clients = h.clients;
          seed = h.seed;
          ops_per_client = h.ops_per_client;
          write_ratio = h.write_ratio;
          strategy = h.strategy;
          corrupt = h.corrupt;
          delay = h.delay_policy;
          plan;
          trace_cap = h.trace_cap;
          snapshot_every = h.snapshot_every;
        }
      in
      match problem t with
      | None -> Ok t
      | Some (field, _, p) -> Error (Printf.sprintf "header: field %S %s" field p))

type run = {
  sys : System.t;
  reg : Register.t;
  outcome : Workload.outcome;
  report : Regularity.report;
  telemetry : Telemetry.t;
  after : int;
  last_fault : int;
  events : (int * Event.t) list;
}

let violation_kind (v : Regularity.violation) =
  match v.kind with
  | `Stale -> "stale"
  | `Future -> "future"
  | `Unwritten -> "unwritten"
  | `Inversion _ -> "inversion"
  | `Order -> "order"

let incomplete_ops ?(since = 0) h =
  List.length
    (List.filter
       (function
         | History.Write { resp = None; inv; _ } -> inv >= since
         | History.Read { outcome = History.Incomplete; inv; _ } -> inv >= since
         | _ -> false)
       (History.ops h))

let execute ?sink ?(level = Trace.On) ?sample ?(profile = false) ?on_system
    ?(collect_events = true) ?(max_events = 20_000_000) t =
  let ( let* ) = Result.bind in
  let* () = validate t in
  let* () =
    match sample with
    | Some s when not (s >= 0.0 && s <= 1.0) ->
        Error (Printf.sprintf "--sample must lie in [0, 1] (got %g)" s)
    | _ -> Ok ()
  in
  let* strategy =
    match t.strategy with
    | None -> Ok None
    | Some name -> (
        match List.assoc_opt name Strategies.all with
        | Some s -> Ok (Some s)
        | None ->
            Error
              (Printf.sprintf "unknown strategy %S; known: %s" name
                 (String.concat ", " (List.map fst Strategies.all))))
  in
  let* delay =
    match List.assoc_opt t.delay policies with
    | Some d -> Ok d
    | None ->
        Error
          (Printf.sprintf "unknown delay policy %S; known: %s" t.delay
             (String.concat ", " (List.map fst policies)))
  in
  let* () =
    if Fault_plan.restrict ~n:t.n ~clients:t.clients t.plan = t.plan then Ok ()
    else Error "fault plan references endpoints outside the system"
  in
  let cfg = Config.make ~allow_unsafe:true ~n:t.n ~f:t.f ~clients:t.clients () in
  let sys = System.create ~seed:t.seed ~delay ~trace_level:level ?sample cfg in
  let engine = System.engine sys in
  let tr = Engine.trace engine in
  let prof = Engine.profile engine in
  if profile then Sbft_sim.Profile.enable prof;
  (* Sinks see the level-filtered stream: at [Sampled] the recorded
     [events] (and any [sink]) are the thinned artifact.  The
     profiler's event attribution follows the same stream — it counts
     what the artifact contains. *)
  let events = ref [] in
  if collect_events then
    Trace.add_sink tr (fun ~time ev -> events := (time, ev) :: !events);
  if profile then Trace.add_sink tr (Sbft_sim.Profile.event_sink prof);
  Option.iter (Trace.add_sink tr) sink;
  (match strategy with Some s -> ignore (Strategy.install_all sys s) | None -> ());
  if t.corrupt then System.corrupt_everything sys ~severity:`Heavy;
  Fault_plan.apply sys t.plan;
  let telemetry = Telemetry.attach ~snapshot_every:t.snapshot_every sys in
  (match on_system with Some f -> f sys | None -> ());
  let reg = Register.core sys in
  let spec =
    { Workload.default with ops_per_client = t.ops_per_client; write_ratio = t.write_ratio }
  in
  let outcome = Workload.run ~spec ~max_events reg in
  let history = System.history sys in
  (* Pseudo-stabilization promises a correct suffix: audit from the
     first write that both began and completed after the last injected
     fault (for a plan-free run that is simply the first completed
     write). *)
  let last_fault = Fault_plan.last_at t.plan in
  let after =
    List.fold_left
      (fun acc op ->
        match op with
        | History.Write { inv; resp = Some r; _ } when inv >= last_fault -> min acc r
        | _ -> acc)
      max_int (History.ops history)
  in
  let report =
    Sbft_sim.Profile.with_phase prof Sbft_sim.Profile.Checker (fun () ->
        Regularity.check ~after ~ts_prec:Sbft_labels.Mw_ts.prec history)
  in
  List.iter
    (fun (v : Regularity.violation) ->
      if Trace.admits tr ~span:Event.no_span then
        Trace.emit tr ~time:(Engine.now engine)
          (Event.Violation { op_id = v.read_id; kind = violation_kind v; detail = v.detail }))
    report.violations;
  Ok
    {
      sys;
      reg;
      outcome;
      report;
      telemetry;
      after;
      last_fault;
      events = List.rev !events;
    }

(* The last [cap] elements of [l]. *)
let last cap l =
  let drop = List.length l - cap in
  if drop <= 0 then l else List.filteri (fun i _ -> i >= drop) l

let forensic_events ~level t r =
  match (level : Trace.level) with
  | On -> last t.trace_cap r.events
  | Off | Sampled -> (
      (* Runs are deterministic at every level, so re-executing at [On]
         emits the very stream this run would have.  Keep only the
         tail as it streams by. *)
      let tail = Queue.create () in
      let keep ~time ev =
        Queue.push (time, ev) tail;
        if Queue.length tail > t.trace_cap then ignore (Queue.pop tail)
      in
      match execute ~sink:keep ~collect_events:false t with
      | Ok _ -> List.of_seq (Queue.to_seq tail)
      | Error _ -> [] (* unreachable: [t] already executed once *))

(* ------------------------------------------------------------------ *)
(* Verdicts.  One word per failure class, ordered by severity: what a
   fuzzing campaign triages on and what a corpus entry's header
   records. *)

type verdict = Pass | Violation of string | Livelock | Starved | Incomplete

(* Reads that returned a value / aborted among those invoked at or
   after [since]. *)
let read_outcomes_since ~since h =
  List.fold_left
    (fun (completed, aborted) op ->
      match op with
      | History.Read { inv; outcome = History.Value _; _ } when inv >= since ->
          (completed + 1, aborted)
      | History.Read { inv; outcome = History.Abort; _ } when inv >= since ->
          (completed, aborted + 1)
      | _ -> (completed, aborted))
    (0, 0) (History.ops h)

let verdict_of_run (r : run) =
  let history = System.history r.sys in
  match r.report.violations with
  | v :: _ -> Violation (violation_kind v)
  | [] ->
      if r.outcome.livelocked then Livelock
      else
        (* The paper lets reads abort for as long as the transitory
           phase lasts, and the phase only ends when a write completes
           after the last fault (= the audit anchor [after]).  So
           starvation is a finding only when that anchor exists and
           reads invoked after it still all abort. *)
        let starved =
          r.after < max_int
          &&
          let completed, aborted = read_outcomes_since ~since:r.after history in
          completed = 0 && aborted > 0
        in
        if starved then Starved
          (* Likewise an operation in flight when a fault struck may
             legally wedge (a corrupted client loses its continuation);
             stabilization only promises that operations invoked after
             the last fault terminate. *)
        else if incomplete_ops ~since:r.last_fault history > 0 then Incomplete
        else Pass

let verdict_to_string = function
  | Pass -> "ok"
  | Violation kind -> "violation:" ^ kind
  | Livelock -> "livelock"
  | Starved -> "starved"
  | Incomplete -> "incomplete"

(* ------------------------------------------------------------------ *)
(* Artifacts: the one recorder, the one replay check, the metrics
   snapshot. *)

let record ~path ~fingerprint ~note ~trace_level t r =
  let verdict = verdict_to_string (verdict_of_run r) in
  let header =
    to_header ~fingerprint ~verdict ~note ~trace_level:(Trace.level_to_string trace_level) t
  in
  Sbft_analysis.Trace_file.save ~path ~header r.events;
  verdict

type replayed = {
  scenario : t;
  verdict : verdict;
  verdict_ok : bool;
  stream : Sbft_analysis.Replay.verdict;
}

let replay (h : Run_header.t) expected =
  let ( let* ) = Result.bind in
  let* scenario = of_header h in
  let* run = execute scenario in
  let verdict = verdict_of_run run in
  Ok
    {
      scenario;
      verdict;
      verdict_ok = h.verdict = "" || h.verdict = verdict_to_string verdict;
      stream =
        Sbft_analysis.Replay.compare_for_level ~trace_level:h.trace_level ~expected
          ~got:run.events;
    }

let stabilization t r =
  let stab =
    Stabilization.of_history
      ~window:(if t.snapshot_every > 0 then t.snapshot_every else 50)
      ~after:r.last_fault (System.history r.sys)
  in
  Stabilization.finalize stab ~now:(Engine.now (System.engine r.sys));
  stab

let metrics_json t r ~profile =
  let module J = Sbft_sim.Json in
  let run =
    [
      ("cmd", J.String "run");
      ("n", J.Int t.n);
      ("f", J.Int t.f);
      ("clients", J.Int t.clients);
      ("seed", J.String (Int64.to_string t.seed));
      ("ops_per_client", J.Int t.ops_per_client);
      ("write_ratio", J.Float t.write_ratio);
      ("byzantine", match t.strategy with Some s -> J.String s | None -> J.Null);
      ("corrupt", J.Bool t.corrupt);
      ("wall_ticks", J.Int r.outcome.wall_ticks);
    ]
  in
  let stale_reads = List.map (fun (v : Regularity.violation) -> v.read_id) r.report.violations in
  let engine = System.engine r.sys in
  Artifacts.metrics_json ~run ~stabilization:(stabilization t r)
    ~regularity:(r.report.checked_reads, List.length r.report.violations)
    ~telemetry:(Telemetry.to_json r.telemetry ~history:(System.history r.sys) ~stale_reads ())
    ?profile:(Option.map Sbft_sim.Profile.to_json profile)
    ~metrics:(Engine.metrics engine)
    ~per_node:(Sbft_channel.Network.node_counters (System.network r.sys))
    ()
