module Engine = Sbft_sim.Engine
module Rng = Sbft_sim.Rng
module Network = Sbft_channel.Network
module Delay = Sbft_channel.Delay
module Sbls = Sbft_labels.Sbls
module Mw_ts = Sbft_labels.Mw_ts
module History = Sbft_spec.History

type t = {
  cfg : Config.t;
  engine : Engine.t;
  net : Msg.t Network.t;
  sys : Sbls.system;
  servers : Server.t array;
  meters : Meters.t; (* shared with every register on the engine's registry *)
  clients : Client.t option array;
  (* by [id - n], created on first use (see [client] in the interface):
     an idle client costs one slot *)
  history : Msg.ts History.t;
  fault_rng : Rng.t;
}

let client_at t i =
  match t.clients.(i) with
  | Some c -> c
  | None ->
      let c = Client.create t.cfg t.sys t.net ~meters:t.meters ~id:(t.cfg.n + i) in
      t.clients.(i) <- Some c;
      c

let create ?(seed = 42L) ?(delay = Delay.uniform ~max:10) ?trace_level ?sample ?transport
    ?engine cfg =
  let engine =
    match engine with
    | Some e -> e
    | None -> Engine.create ?trace_level ?sample ~seed ()
  in
  let net =
    Network.create engine ~endpoints:(Config.endpoints cfg) ~servers:cfg.n ~delay
      ~kinds:{ index = Msg.kind; names = Msg.kind_names } ?transport ()
  in
  let sys = Sbls.system ~k:cfg.k in
  let meters = Meters.shared (Engine.metrics engine) in
  let servers = Array.init cfg.n (fun id -> Server.create cfg sys net ~meters ~id) in
  let fault_rng = Rng.split (Engine.rng engine) in
  let clients = Array.make cfg.clients None in
  let t =
    { cfg; engine; net; sys; servers; meters; clients; history = History.create (); fault_rng }
  in
  (* One handler serves every client endpoint.  It is registered once,
     here, and creates the automaton at the endpoint's first message: a
     Byzantine takeover that replaces one endpoint's handler is never
     undone by the automaton's later creation. *)
  let to_client ~dst ~src msg = Client.handle (client_at t (dst - cfg.n)) ~src msg in
  for id = cfg.n to Config.endpoints cfg - 1 do
    Network.register net id to_client
  done;
  t

let config t = t.cfg

let engine t = t.engine

let network t = t.net

let label_system t = t.sys

let server t id =
  if not (Config.is_server t.cfg id) then invalid_arg "System.server: not a server id";
  t.servers.(id)

let client t id =
  if Config.is_server t.cfg id || id >= Config.endpoints t.cfg then
    invalid_arg "System.client: not a client id";
  client_at t (id - t.cfg.n)

let history t = t.history

let rng t = t.fault_rng

let write t ~client:cid ~value ?span_k ?(k = fun () -> ()) () =
  let c = client t cid in
  let op = History.begin_write t.history ~client:cid ~value ~time:(Engine.now t.engine) in
  Client.write ~op_id:op ?span_k c ~value (fun () ->
      History.end_write t.history ~id:op ~time:(Engine.now t.engine) ~ts:(Client.last_write_ts c);
      k ())

let read t ~client:cid ?span_k ?(k = fun _ -> ()) () =
  let c = client t cid in
  let op = History.begin_read t.history ~client:cid ~time:(Engine.now t.engine) in
  Client.read ~op_id:op ?span_k c (fun outcome ->
      History.end_read t.history ~id:op ~time:(Engine.now t.engine) ~outcome;
      k outcome)

let run ?until ?max_events t = Engine.run ?until ?max_events t.engine

let quiesce ?(max_events = 10_000_000) t = Engine.run ~max_events t.engine

let corrupt_server t id ~severity = Server.corrupt (server t id) t.fault_rng ~severity

let corrupt_client t id = Client.corrupt (client t id) t.fault_rng

let corrupt_channels t ~density =
  Network.corrupt_channels t.net t.fault_rng ~density (Msg.garbage t.sys)

let corrupt_everything t ~severity =
  Array.iteri (fun id _ -> corrupt_server t id ~severity) t.servers;
  for i = 0 to t.cfg.clients - 1 do
    let c = client_at t i in
    if not (Client.busy c) then Client.corrupt c t.fault_rng
  done;
  corrupt_channels t ~density:0.3

let replace_server_handler t id handler =
  if not (Config.is_server t.cfg id) then invalid_arg "System.replace_server_handler";
  Network.register t.net id (fun ~dst:_ ~src msg -> handler ~src msg)

let server_states t =
  Array.to_list (Array.map (fun s -> (Server.id s, Server.value s, Server.ts s)) t.servers)

let count_holding t ~value ~ts =
  Array.fold_left (fun acc s -> if Server.holds s ~value ~ts then acc + 1 else acc) 0 t.servers

let total_aborted_reads t =
  Array.fold_left
    (fun acc -> function Some c -> acc + Client.aborted_reads c | None -> acc)
    0 t.clients
