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
  | W_collect of { value : int; k : unit -> unit; got : (int, Msg.ts) Hashtbl.t }
  | W_commit of {
      value : int;
      k : unit -> unit;
      ts : Msg.ts;
      acks : (int, unit) Hashtbl.t;
      nacks : (int, unit) Hashtbl.t;
    }

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
  safe : bool array; (* per server: echoed FLUSH_ACK for the current label *)
  replies : (int, int * Msg.ts) Hashtbl.t; (* server -> current pair *)
  recent : (int, Msg.hist_entry list) Hashtbl.t; (* server -> old_vals *)
  mutable write_ts : Msg.ts option;
  mutable aborted : int;
}

let id t = t.id

let busy t = t.wphase <> W_idle || t.rphase <> R_idle

let last_write_ts t = t.write_ts

let aborted_reads t = t.aborted

let servers t = Config.server_ids t.cfg

let is_server t src = Config.is_server t.cfg src

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

let write ?op_id ?span_k t ~value k =
  if t.wphase <> W_idle then invalid_arg "Client.write: write already in progress";
  let got = Hashtbl.create (t.cfg.n * 2) in
  let span = fresh_span t ~op_id in
  t.wspan <- Some span;
  (match span_k with Some f -> f span.sid | None -> ());
  if tracing t span then
    emit t (Event.Op_started { op_id = span.op; client = t.id; kind = "write"; span = span.sid });
  t.wphase <- W_collect { value; k; got };
  Network.with_span t.net span.sid (fun () ->
      List.iter (fun s -> Network.send t.net ~src:t.id ~dst:s Msg.Get_ts) (servers t))

let wspan_id t = match t.wspan with Some s -> s.sid | None -> Event.no_span

let rspan_id t = match t.rspan with Some s -> s.sid | None -> Event.no_span

let on_ts_reply t ~src ts =
  match t.wphase with
  | W_collect { value; k; got } when is_server t src ->
      Hashtbl.replace got src ts;
      if Hashtbl.length got >= Config.quorum t.cfg then begin
        (match t.wspan with
        | Some span ->
            if tracing t span then
              emit t
                (Event.Quorum_formed
                   {
                     op_id = span.op;
                     client = t.id;
                     phase = "ts";
                     size = Hashtbl.length got;
                     span = span.sid;
                   });
            ignore (phase_done t span ~hist:t.meters.write_collect ~phase:"collect")
        | None -> ());
        let collected = Hashtbl.fold (fun _ ts acc -> ts :: acc) got [] in
        let wts = Mw_ts.next t.sys ~writer:t.id collected in
        t.wphase <-
          W_commit { value; k; ts = wts; acks = Hashtbl.create 8; nacks = Hashtbl.create 8 };
        Network.with_span t.net (wspan_id t) (fun () ->
            List.iter
              (fun s -> Network.send t.net ~src:t.id ~dst:s (Msg.Write_req { value; ts = wts }))
              (servers t))
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
  t.wphase <- W_collect { value; k; got = Hashtbl.create (t.cfg.n * 2) };
  Network.with_span t.net (wspan_id t) (fun () ->
      List.iter (fun s -> Network.send t.net ~src:t.id ~dst:s Msg.Get_ts) (servers t))

let on_write_ack t ~src ~ts ~ack =
  match t.wphase with
  | W_commit { value; k; ts = wts; acks; nacks } when is_server t src && Mw_ts.equal ts wts ->
      if ack then Hashtbl.replace acks src () else Hashtbl.replace nacks src ();
      let n_acks = Hashtbl.length acks and n_nacks = Hashtbl.length nacks in
      if n_acks + n_nacks >= Config.quorum t.cfg then
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
      let safe_count = Array.fold_left (fun acc s -> if s then acc + 1 else acc) 0 t.safe in
      if tracing t span then
        emit t
          (Event.Quorum_formed
             { op_id = span.op; client = t.id; phase = "flush"; size = safe_count; span = span.sid });
      ignore (phase_done t span ~hist:t.meters.read_flush ~phase:"flush")
  | None -> ());
  t.rphase <- R_read { k; label };
  Network.with_span t.net (rspan_id t) (fun () ->
      List.iteri (fun s safe -> if safe then send_read t ~label s) (Array.to_list t.safe))

let check_flush_done t =
  match t.rphase with
  | R_flush { k; label } ->
      if Read_labels.pending_count t.rl ~label <= t.cfg.f then start_reading t ~k ~label
  | _ -> ()

let read ?op_id ?span_k t k =
  if t.rphase <> R_idle then invalid_arg "Client.read: read already in progress";
  Hashtbl.reset t.replies;
  Hashtbl.reset t.recent;
  Array.fill t.safe 0 (Array.length t.safe) false;
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
      List.iter (fun s -> Network.send t.net ~src:t.id ~dst:s (Msg.Flush { label })) (servers t);
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
  Network.with_span t.net sid (fun () ->
      Array.iteri
        (fun s safe ->
          if safe then Network.send t.net ~src:t.id ~dst:s (Msg.Complete_read { label }))
        t.safe);
  k outcome

let local_witnesses t =
  Hashtbl.fold
    (fun server (value, ts) acc -> { Wtsg.server; value; ts; rank = 0 } :: acc)
    t.replies []

let union_witnesses t =
  Hashtbl.fold
    (fun server entries acc ->
      (* Rank i+1 for the i-th history entry: each server's report is
         newest-first, and the vote in Wtsg.best leans on that order. *)
      List.fold_left
        (fun (acc, rank) (e : Msg.hist_entry) ->
          ({ Wtsg.server; value = e.value; ts = e.ts; rank } :: acc, rank + 1))
        (acc, 1) entries
      |> fst)
    t.recent (local_witnesses t)

let try_complete t ~k ~label =
  if Hashtbl.length t.replies >= Config.quorum t.cfg then begin
    let threshold = Config.witness_threshold t.cfg in
    let local = Wtsg.build (local_witnesses t) in
    match Wtsg.best local ~min_weight:threshold with
    | Some node -> finish_read t ~k ~label (Sbft_spec.History.Value node.value)
    | None -> (
        let union = Wtsg.build (union_witnesses t) in
        match Wtsg.best union ~min_weight:threshold with
        | Some node -> finish_read t ~k ~label (Sbft_spec.History.Value node.value)
        | None -> finish_read t ~k ~label Sbft_spec.History.Abort)
  end

let on_flush_ack t ~src ~label =
  if is_server t src then begin
    Read_labels.clear_pending t.rl ~server:src ~label;
    match t.rphase with
    | R_flush { label = cur; _ } when label = cur ->
        t.safe.(src) <- true;
        check_flush_done t
    | R_read { label = cur; _ } when label = cur && not t.safe.(src) ->
        t.safe.(src) <- true;
        send_read t ~label:cur src
    | _ -> ()
  end

let on_reply t ~src ~value ~ts ~old ~label =
  if is_server t src then begin
    Read_labels.clear_pending t.rl ~server:src ~label;
    match t.rphase with
    | R_read { k; label = cur } when label = cur && t.safe.(src) ->
        Hashtbl.replace t.replies src (value, ts);
        (* Cap the history a server can contribute: a Byzantine server
           must not inflate the union graph with an unbounded list. *)
        let rec take n = function
          | [] -> []
          | _ when n = 0 -> []
          | x :: r -> x :: take (n - 1) r
        in
        Hashtbl.replace t.recent src (take t.cfg.history_depth old);
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
  Array.iteri (fun i _ -> t.safe.(i) <- Rng.bool rng) t.safe;
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
    safe = Array.make cfg.n false;
    replies = Hashtbl.create 16;
    recent = Hashtbl.create 16;
    write_ts = None;
    aborted = 0;
  }
