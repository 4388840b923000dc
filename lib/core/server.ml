module Network = Sbft_channel.Network
module Mw_ts = Sbft_labels.Mw_ts
module Sbls = Sbft_labels.Sbls
module Rng = Sbft_sim.Rng
module Engine = Sbft_sim.Engine
module Metrics = Sbft_sim.Metrics
module Names = Sbft_sim.Metric_names
module Trace = Sbft_sim.Trace
module Event = Sbft_sim.Event

type t = {
  cfg : Config.t;
  sys : Sbls.system;
  net : Msg.t Network.t;
  meters : Meters.t;
  id : int;
  mutable value : int;
  mutable ts : Msg.ts;
  mutable old_vals : Msg.hist_entry list; (* newest first, <= history_depth *)
  running_read : (int, int * int) Hashtbl.t; (* client -> (label, reader's span) *)
}

let id t = t.id

let value t = t.value

let ts t = t.ts

let old_vals t = t.old_vals

let running_readers t = Hashtbl.fold (fun c (l, _) acc -> (c, l) :: acc) t.running_read []

let holds t ~value ~ts =
  (t.value = value && Mw_ts.equal t.ts ts)
  || List.exists (fun (e : Msg.hist_entry) -> e.value = value && Mw_ts.equal e.ts ts) t.old_vals

let truncate depth l =
  let rec go n = function [] -> [] | _ when n = 0 -> [] | x :: r -> x :: go (n - 1) r in
  go depth l

(* [span] is the reader's span: a reply pushed by a {e write}
   (forward_to_readers) must bill itself to the read it serves, not to
   the write that triggered it, so the stored span overrides whatever
   operation is executing. *)
let reply_to_reader t ~client ~label ~span =
  Network.with_span t.net span (fun () ->
      Network.send t.net ~src:t.id ~dst:client
        (Msg.Reply { value = t.value; ts = t.ts; old = t.old_vals; label }))

let handle t ~src msg =
  match (msg : Msg.t) with
  | Get_ts -> Network.send t.net ~src:t.id ~dst:src (Msg.Ts_reply { ts = t.ts })
  | Write_req { value; ts } ->
      let ack = Mw_ts.prec t.ts ts in
      (* Unconditional adoption: shift the previous pair into the
         window even on NACK (Figure 1b). *)
      t.old_vals <- truncate t.cfg.history_depth ({ Msg.value = t.value; ts = t.ts } :: t.old_vals);
      t.value <- value;
      t.ts <- ts;
      Metrics.counter_incr
        (Lazy.force (if ack then t.meters.label_adoptions else t.meters.label_rejections));
      let engine = Network.engine t.net in
      let tr = Engine.trace engine in
      (* the adoption belongs to the write whose request carried it in *)
      if Trace.admits tr ~span:(Network.current_span t.net) then
        Trace.emit tr ~time:(Engine.now engine)
          (Event.Label_adopted { server = t.id; writer = src; ack });
      Network.send t.net ~src:t.id ~dst:src (Msg.Write_ack { ts; ack });
      if t.cfg.forward_to_readers then
        Hashtbl.iter
          (fun client (label, span) -> reply_to_reader t ~client ~label ~span)
          t.running_read
  | Read_req { label } ->
      let span = Network.current_span t.net in
      Hashtbl.replace t.running_read src (label, span);
      reply_to_reader t ~client:src ~label ~span
  | Complete_read _ -> Hashtbl.remove t.running_read src
  | Flush { label } -> Network.send t.net ~src:t.id ~dst:src (Msg.Flush_ack { label })
  | Ts_reply _ | Write_ack _ | Reply _ | Flush_ack _ ->
      (* Client-bound messages landing on a server: possible only under
         corruption or Byzantine forgery; a correct server ignores
         them. *)
      ()

let corrupt t rng ~severity =
  t.value <- Rng.int_in rng (-1_000_000) 1_000_000;
  (match severity with
  | `Light -> t.ts <- Mw_ts.random t.sys rng ~clients:t.cfg.clients
  | `Heavy -> t.ts <- Mw_ts.random_garbage t.sys rng);
  match severity with
  | `Light -> ()
  | `Heavy ->
      t.old_vals <-
        List.init
          (Rng.int rng (t.cfg.history_depth + 1))
          (fun _ ->
            { Msg.value = Rng.int_in rng (-1_000_000) 1_000_000;
              ts = Mw_ts.random_garbage t.sys rng });
      Hashtbl.reset t.running_read;
      let extra = Rng.int rng (t.cfg.clients + 1) in
      for _ = 1 to extra do
        Hashtbl.replace t.running_read
          (Rng.int rng (Config.endpoints t.cfg))
          (Rng.int_in rng (-1) (t.cfg.read_label_pool + 1), Event.no_span)
      done

let create cfg sys net ~meters ~id =
  let t =
    {
      cfg;
      sys;
      net;
      meters;
      id;
      value = 0;
      ts = Mw_ts.initial sys;
      old_vals = [];
      running_read = Hashtbl.create 8;
    }
  in
  Network.register net id (fun ~dst:_ ~src msg -> handle t ~src msg);
  t
