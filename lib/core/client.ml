module Network = Sbft_channel.Network
module Mw_ts = Sbft_labels.Mw_ts
module Sbls = Sbft_labels.Sbls
module Wtsg = Sbft_labels.Wtsg
module Read_labels = Sbft_labels.Read_labels
module Rng = Sbft_sim.Rng
module Engine = Sbft_sim.Engine
module Metrics = Sbft_sim.Metrics
module Names = Sbft_sim.Metric_names
module Trace = Sbft_sim.Trace
module Event = Sbft_sim.Event

type read_outcome = Sbft_spec.History.read_outcome

type write_phase =
  | W_idle
  | W_collect of { value : int; k : unit -> unit }
  | W_commit of { value : int; k : unit -> unit; ts : Msg.ts }

type read_phase =
  | R_idle
  | R_flush of { k : read_outcome -> unit; label : int }
  | R_read of { k : read_outcome -> unit; label : int }

(* One live span per operation: [op] is the history operation id when
   the caller (System) provides one, [sid] the run-global span id
   stamped on every trace event and message of the operation, [t0] the
   invocation instant, [ph] the start of the current phase. *)
type span = { op : int; sid : int; t0 : int; mutable ph : int }

type t = {
  cfg : Config.t;
  sys : Sbls.system;
  net : Msg.t Network.t;
  meters : Meters.t;
  tr : Trace.t; (* cached so the hot path can skip event construction *)
  id : int;
  mutable wphase : write_phase;
  mutable rphase : read_phase;
  mutable wspan : span option;
  mutable rspan : span option;
  mutable op_seq : int; (* fallback span ids when driven without a history *)
  rl : Read_labels.t;
  safe : Bytes.t; (* servers that echoed FLUSH_ACK for the current label *)
  (* Per-server state of the current phase, indexed by server id:
     allocated once and reset when a phase starts.  The sets are byte
     sets (see [mem]); a slot of [stamps], [values], [current] or
     [recent] is read only once its server is in the set beside it. *)
  got : Bytes.t; (* collect: TS reply received ... *)
  stamps : Msg.ts array; (* ... and its timestamp *)
  acked : Bytes.t; (* commit: ACK received *)
  nacked : Bytes.t; (* commit: NACK received *)
  replied : Bytes.t; (* read: reply received ... *)
  values : int array; (* ... its current pair ... *)
  current : Msg.ts array;
  recent : Msg.hist_entry list array; (* ... and its old_vals, as received *)
  mutable write_ts : Msg.ts option;
  mutable aborted : int;
}

let id t = t.id

let busy t = t.wphase <> W_idle || t.rphase <> R_idle

let last_write_ts t = t.write_ts

let aborted_reads t = t.aborted

let is_server t src = Config.is_server t.cfg src

(* A set of server ids is one byte per server, non-zero for members. *)
let mem set s = Bytes.get set s <> '\000'

let add set s = Bytes.set set s '\001'

let clear set = Bytes.fill set 0 (Bytes.length set) '\000'

let count set =
  let c = ref 0 in
  for s = 0 to Bytes.length set - 1 do
    if mem set s then incr c
  done;
  !c

(* What [stamps] and [current] hold before a reply fills a slot; every
   client shares it, since no slot is read before it is filled. *)
let placeholder = Mw_ts.initial (Sbls.system ~k:2)

let broadcast t msg =
  for s = 0 to t.cfg.n - 1 do
    Network.send t.net ~src:t.id ~dst:s msg
  done

(* ------------------------------------------------------------------ *)
(* Span plumbing.                                                      *)

let engine t = Network.engine t.net

let now t = Engine.now (engine t)

let metrics t = Engine.metrics (engine t)

(* [tracing t span] guards the *construction* of the event payload at
   every call site, not just its sinking: with the trace dial Off, or
   for a span the head sampler passed over, the kv put/get hot path
   allocates no event records at all. *)
let tracing t (span : span) = Trace.admits t.tr ~span:span.sid

let emit t ev = Trace.emit t.tr ~time:(now t) ev

let fresh_span t ~op_id =
  let sid = Engine.fresh_span (engine t) in
  match op_id with
  | Some op ->
      let at = now t in
      { op; sid; t0 = at; ph = at }
  | None ->
      (* Negative ids keep direct-driven clients (no history) distinct
         from history operation ids, which start at 0. *)
      t.op_seq <- t.op_seq + 1;
      let at = now t in
      { op = -((t.id * 1_000_000) + t.op_seq); sid; t0 = at; ph = at }

let phase_done t span ~hist ~phase =
  let at = now t in
  let ticks = at - span.ph in
  Metrics.hist_record (Lazy.force hist) (float_of_int ticks);
  if tracing t span then
    emit t (Event.Op_phase { op_id = span.op; client = t.id; phase; ticks; span = span.sid });
  span.ph <- at;
  ticks

(* ------------------------------------------------------------------ *)
(* Writer (Figure 1a).                                                 *)

let wspan_id t = match t.wspan with Some s -> s.sid | None -> Event.no_span

let rspan_id t = match t.rspan with Some s -> s.sid | None -> Event.no_span

let start_collect t ~value ~k =
  clear t.got;
  t.wphase <- W_collect { value; k };
  Network.with_span t.net (wspan_id t) (fun () -> broadcast t Msg.Get_ts)

let write ?op_id ?span_k t ~value k =
  if t.wphase <> W_idle then invalid_arg "Client.write: write already in progress";
  let span = fresh_span t ~op_id in
  t.wspan <- Some span;
  (match span_k with Some f -> f span.sid | None -> ());
  if tracing t span then
    emit t (Event.Op_started { op_id = span.op; client = t.id; kind = "write"; span = span.sid });
  start_collect t ~value ~k

let on_ts_reply t ~src ts =
  match t.wphase with
  | W_collect { value; k } when is_server t src ->
      add t.got src;
      t.stamps.(src) <- ts;
      let n_got = count t.got in
      if n_got >= Config.quorum t.cfg then begin
        (match t.wspan with
        | Some span ->
            if tracing t span then
              emit t
                (Event.Quorum_formed
                   {
                     op_id = span.op;
                     client = t.id;
                     phase = "ts";
                     size = n_got;
                     span = span.sid;
                   });
            ignore (phase_done t span ~hist:t.meters.write_collect ~phase:"collect")
        | None -> ());
        (* At most n - f <= k timestamps, so [next] does not depend
           on their order. *)
        let collected = ref [] in
        for s = t.cfg.n - 1 downto 0 do
          if mem t.got s then collected := t.stamps.(s) :: !collected
        done;
        let wts = Mw_ts.next t.sys ~writer:t.id !collected in
        clear t.acked;
        clear t.nacked;
        t.wphase <- W_commit { value; k; ts = wts };
        Network.with_span t.net (wspan_id t) (fun () ->
            broadcast t (Msg.Write_req { value; ts = wts }))
      end
  | _ -> ()

let restart_write t ~value ~k =
  Metrics.incr (metrics t) Names.client_write_retries;
  (match t.wspan with
  | Some span ->
      let at = now t in
      if tracing t span then
        emit t
          (Event.Op_phase
             { op_id = span.op; client = t.id; phase = "retry"; ticks = at - span.ph; span = span.sid });
      span.ph <- at
  | None -> ());
  start_collect t ~value ~k

let on_write_ack t ~src ~ts ~ack =
  match t.wphase with
  | W_commit { value; k; ts = wts } when is_server t src && Mw_ts.equal ts wts ->
      add (if ack then t.acked else t.nacked) src;
      let n_acks = count t.acked in
      if n_acks + count t.nacked >= Config.quorum t.cfg then
        if n_acks >= Config.witness_threshold t.cfg then begin
          (match t.wspan with
          | Some span ->
              if tracing t span then
                emit t
                  (Event.Quorum_formed
                     { op_id = span.op; client = t.id; phase = "ack"; size = n_acks; span = span.sid });
              ignore (phase_done t span ~hist:t.meters.write_commit ~phase:"commit");
              let total = now t - span.t0 in
              Metrics.hist_record (Lazy.force t.meters.write_total) (float_of_int total);
              if tracing t span then
                emit t
                  (Event.Op_finished
                     {
                       op_id = span.op;
                       client = t.id;
                       kind = "write";
                       outcome = "ok";
                       ticks = total;
                       span = span.sid;
                     });
              t.wspan <- None
          | None -> ());
          t.wphase <- W_idle;
          t.write_ts <- Some wts;
          k ()
        end
        else
          (* At the paper's wait point (n - f responses) without the
             2f + 1 ACKs.  For a single writer Lemma 1's counting rules
             this out (at most 2f NACKs can exist); with concurrent
             writers other clients' timestamps may have displaced ours
             on more than 2f servers, and no further ACK for this
             timestamp can be trusted to arrive — so re-timestamp and
             retry, which is exactly "compute a fresh dominating label
             and write again".  See DESIGN.md, deviations. *)
          restart_write t ~value ~k
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Reader (Figures 2a and 3a).                                         *)

let send_read t ~label s =
  Read_labels.mark_pending t.rl ~server:s ~label;
  Network.send t.net ~src:t.id ~dst:s (Msg.Read_req { label })

let start_reading t ~k ~label =
  (match t.rspan with
  | Some span ->
      let safe_count = count t.safe in
      if tracing t span then
        emit t
          (Event.Quorum_formed
             { op_id = span.op; client = t.id; phase = "flush"; size = safe_count; span = span.sid });
      ignore (phase_done t span ~hist:t.meters.read_flush ~phase:"flush")
  | None -> ());
  t.rphase <- R_read { k; label };
  Network.with_span t.net (rspan_id t) (fun () ->
      for s = 0 to t.cfg.n - 1 do
        if mem t.safe s then send_read t ~label s
      done)

let check_flush_done t =
  match t.rphase with
  | R_flush { k; label } ->
      if Read_labels.pending_count t.rl ~label <= t.cfg.f then start_reading t ~k ~label
  | _ -> ()

let read ?op_id ?span_k t k =
  if t.rphase <> R_idle then invalid_arg "Client.read: read already in progress";
  clear t.replied;
  Array.fill t.recent 0 t.cfg.n [];
  clear t.safe;
  let span = fresh_span t ~op_id in
  t.rspan <- Some span;
  (match span_k with Some f -> f span.sid | None -> ());
  if tracing t span then
    emit t (Event.Op_started { op_id = span.op; client = t.id; kind = "read"; span = span.sid });
  let label = Read_labels.choose t.rl in
  if tracing t span then
    emit t (Event.Epoch_changed { node = t.id; epoch = label; what = "read_label" });
  t.rphase <- R_flush { k; label };
  Network.with_span t.net span.sid (fun () ->
      broadcast t (Msg.Flush { label });
      check_flush_done t)

let finish_read t ~k ~label outcome =
  t.rphase <- R_idle;
  (match outcome with Sbft_spec.History.Abort -> t.aborted <- t.aborted + 1 | _ -> ());
  let sid = rspan_id t in
  (match t.rspan with
  | Some span ->
      ignore (phase_done t span ~hist:t.meters.read_decide ~phase:"decide");
      let total = now t - span.t0 in
      let outcome_str, total_hist =
        match outcome with
        | Sbft_spec.History.Value _ -> ("value", t.meters.read_total)
        | Sbft_spec.History.Abort -> ("abort", t.meters.read_abort)
        | Sbft_spec.History.Incomplete -> ("incomplete", t.meters.read_abort)
      in
      Metrics.hist_record (Lazy.force total_hist) (float_of_int total);
      if tracing t span then
        emit t
          (Event.Op_finished
             {
               op_id = span.op;
               client = t.id;
               kind = "read";
               outcome = outcome_str;
               ticks = total;
               span = span.sid;
             });
      t.rspan <- None
  | None -> ());
  let complete = Msg.Complete_read { label } in
  Network.with_span t.net sid (fun () ->
      for s = 0 to t.cfg.n - 1 do
        if mem t.safe s then Network.send t.net ~src:t.id ~dst:s complete
      done);
  k outcome

(* One server's history at ranks [rank], [rank + 1], ...: each report
   is newest-first, and the vote in Wtsg.best leans on that order.  A
   server contributes at most [history_depth] entries, so a Byzantine
   one cannot inflate the union graph with an unbounded list. *)
let rec add_history table ~depth ~server rank = function
  | (e : Msg.hist_entry) :: rest when rank <= depth ->
      Wtsg.add table ~server ~value:e.value ~ts:e.ts ~rank;
      add_history table ~depth ~server (rank + 1) rest
  | _ -> ()

(* The current replies at rank 0 first; only when no pair qualifies
   does the read add the histories and decide the union graph. *)
let try_complete t ~k ~label =
  if count t.replied >= Config.quorum t.cfg then begin
    let n = t.cfg.n and min_weight = Config.witness_threshold t.cfg in
    let table = Wtsg.local ~servers:n in
    for server = 0 to n - 1 do
      if mem t.replied server then
        Wtsg.add table ~server ~value:t.values.(server) ~ts:t.current.(server) ~rank:0
    done;
    let decided =
      match Wtsg.best table ~min_weight with
      | Some _ as node -> node
      | None ->
          for server = 0 to n - 1 do
            if mem t.replied server then
              add_history table ~depth:t.cfg.history_depth ~server 1 t.recent.(server)
          done;
          Wtsg.best table ~min_weight
    in
    match decided with
    | Some node -> finish_read t ~k ~label (Sbft_spec.History.Value node.value)
    | None -> finish_read t ~k ~label Sbft_spec.History.Abort
  end

let on_flush_ack t ~src ~label =
  if is_server t src then begin
    Read_labels.clear_pending t.rl ~server:src ~label;
    match t.rphase with
    | R_flush { label = cur; _ } when label = cur ->
        add t.safe src;
        check_flush_done t
    | R_read { label = cur; _ } when label = cur && not (mem t.safe src) ->
        add t.safe src;
        send_read t ~label:cur src
    | _ -> ()
  end

let on_reply t ~src ~value ~ts ~old ~label =
  if is_server t src then begin
    Read_labels.clear_pending t.rl ~server:src ~label;
    match t.rphase with
    | R_read { k; label = cur } when label = cur && mem t.safe src ->
        add t.replied src;
        t.values.(src) <- value;
        t.current.(src) <- ts;
        t.recent.(src) <- old;
        try_complete t ~k ~label:cur
    | _ -> ()
  end

(* ------------------------------------------------------------------ *)

let handle t ~src msg =
  match (msg : Msg.t) with
  | Ts_reply { ts } -> on_ts_reply t ~src ts
  | Write_ack { ts; ack } -> on_write_ack t ~src ~ts ~ack
  | Flush_ack { label } -> on_flush_ack t ~src ~label
  | Reply { value; ts; old; label } -> on_reply t ~src ~value ~ts ~old ~label
  | Get_ts | Write_req _ | Read_req _ | Complete_read _ | Flush _ ->
      (* Server-bound traffic reaching a client: corruption or forgery;
         ignore. *)
      ()

let corrupt t rng =
  Read_labels.corrupt t.rl rng;
  for s = 0 to t.cfg.n - 1 do
    Bytes.set t.safe s (if Rng.bool rng then '\001' else '\000')
  done;
  t.write_ts <-
    (if Rng.bool rng then Some (Mw_ts.random_garbage t.sys rng) else t.write_ts)

let abandon t =
  t.wphase <- W_idle;
  t.rphase <- R_idle;
  t.wspan <- None;
  t.rspan <- None

let create cfg sys net ~meters ~id =
  if Config.is_server cfg id then invalid_arg "Client.create: id is a server endpoint";
  {
    cfg;
    sys;
    net;
    meters;
    tr = Engine.trace (Network.engine net);
    id;
    wphase = W_idle;
    rphase = R_idle;
    wspan = None;
    rspan = None;
    op_seq = 0;
    rl = Read_labels.create ~servers:cfg.n ~pool:cfg.read_label_pool;
    safe = Bytes.make cfg.n '\000';
    got = Bytes.make cfg.n '\000';
    stamps = Array.make cfg.n placeholder;
    acked = Bytes.make cfg.n '\000';
    nacked = Bytes.make cfg.n '\000';
    replied = Bytes.make cfg.n '\000';
    values = Array.make cfg.n 0;
    current = Array.make cfg.n placeholder;
    recent = Array.make cfg.n [];
    write_ts = None;
    aborted = 0;
  }
