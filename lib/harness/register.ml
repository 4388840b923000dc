module History = Sbft_spec.History
module Regularity = Sbft_spec.Regularity
module Safety = Sbft_spec.Safety
module Atomicity = Sbft_spec.Atomicity
module Engine = Sbft_sim.Engine
module Metrics = Sbft_sim.Metrics

type check = { checked : int; skipped : int; violations : int; detail : string list }

type t = {
  writer_clients : int list;
  reader_clients : int list;
  write : client:int -> value:int -> k:(unit -> unit) -> unit;
  read : client:int -> k:(Sbft_spec.History.read_outcome -> unit) -> unit;
  engine : Sbft_sim.Engine.t;
  quiesce : max_events:int -> unit;
  check_regular : after:int -> unit -> check;
  check_safe : after:int -> unit -> check;
  check_atomic : after:int -> unit -> check;
  op_latencies : unit -> float array * float array;
  completed_reads : unit -> int;
  aborted_reads : unit -> int;
  completed_writes : unit -> int;
  first_write_completion : unit -> int option;
  messages_sent : unit -> int;
  max_ts_bits : unit -> int;
}

let latencies h =
  let w = ref [] and r = ref [] in
  List.iter
    (fun op ->
      match op with
      | History.Write { inv; resp = Some resp; _ } -> w := float_of_int (resp - inv) :: !w
      | History.Read { inv; resp = Some resp; outcome = History.Value _; _ } ->
          r := float_of_int (resp - inv) :: !r
      | _ -> ())
    (History.ops h);
  (Array.of_list (List.rev !w), Array.of_list (List.rev !r))

(* Everything but the operations and the label width is read off the
   history and the engine. *)
let make (type ts) ~(prec : ts -> ts -> bool) (h : ts History.t) ~engine ~writers ~readers ~write
    ~read ~quiesce ~max_ts_bits =
  let regular ~after () =
    let r = Regularity.check ~after ~ts_prec:prec h in
    {
      checked = r.checked_reads;
      skipped = r.skipped_reads;
      violations = List.length r.violations;
      detail = List.map (fun (v : Regularity.violation) -> v.detail) r.violations;
    }
  in
  let safe ~after () =
    let r = Safety.check ~after ~ts_prec:prec h in
    {
      checked = r.checked_reads;
      skipped = r.unconstrained_reads;
      violations = List.length r.violations;
      detail = List.map (fun (v : Safety.violation) -> v.detail) r.violations;
    }
  in
  let atomic ~after () =
    let r = Atomicity.check ~after h in
    {
      checked = r.checked_ops;
      skipped = 0;
      violations = (if r.linearizable then 0 else 1);
      detail = (match r.cycle with Some c -> [ c ] | None -> []);
    }
  in
  {
    writer_clients = writers;
    reader_clients = readers;
    write;
    read;
    engine;
    quiesce;
    check_regular = regular;
    check_safe = safe;
    check_atomic = atomic;
    op_latencies = (fun () -> latencies h);
    completed_reads = (fun () -> History.completed_reads h);
    aborted_reads = (fun () -> History.aborted_reads h);
    completed_writes = (fun () -> History.completed_writes h);
    first_write_completion = (fun () -> History.first_write_completion h);
    messages_sent = (fun () -> Metrics.get (Engine.metrics engine) Sbft_sim.Metric_names.net_sent);
    max_ts_bits;
  }

let core sys =
  let module S = Sbft_core.System in
  let clients = Sbft_core.Config.client_ids (S.config sys) in
  let sbls = S.label_system sys in
  make ~prec:Sbft_labels.Mw_ts.prec (S.history sys) ~engine:(S.engine sys) ~writers:clients
    ~readers:clients
    ~write:(fun ~client ~value ~k -> S.write sys ~client ~value ~k ())
    ~read:(fun ~client ~k -> S.read sys ~client ~k ())
    ~quiesce:(fun ~max_events -> S.quiesce ~max_events sys)
    ~max_ts_bits:(fun () -> Sbft_labels.Sbls.size_bits sbls)

let baseline sys =
  let module B = Sbft_baselines.Baseline in
  let module U = Sbft_labels.Unbounded in
  make ~prec:U.prec (B.history sys) ~engine:(B.engine sys) ~writers:(B.writers sys)
    ~readers:(B.clients sys)
    ~write:(fun ~client ~value ~k -> B.write sys ~client ~value ~k ())
    ~read:(fun ~client ~k -> B.read sys ~client ~k ())
    ~quiesce:(fun ~max_events -> B.quiesce ~max_events sys)
    ~max_ts_bits:(fun () -> U.size_bits { U.ts = B.max_ts sys; writer = 0 })
