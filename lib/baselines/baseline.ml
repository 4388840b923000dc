module Engine = Sbft_sim.Engine
module Rng = Sbft_sim.Rng
module Network = Sbft_channel.Network
module Delay = Sbft_channel.Delay
module Ts = Sbft_labels.Unbounded
module History = Sbft_spec.History

type protocol = Abd | Kanjani | Mr_safe

type msg =
  | Read_q
  | Read_r of { value : int; ts : Ts.t }
  | Ts_q
  | Ts_r of { ts : Ts.t }
  | Write_q of { value : int; ts : Ts.t }
  | Write_a of { ts : Ts.t }

type server = { sid : int; mutable value : int; mutable ts : Ts.t }

type op =
  | Idle
  | Ts_collect of { value : int; k : Ts.t -> unit; got : (int, Ts.t) Hashtbl.t }
  | Write_wait of { k : Ts.t -> unit; ts : Ts.t; acks : (int, unit) Hashtbl.t }
  | Read_collect of { k : History.read_outcome -> unit; got : (int, int * Ts.t) Hashtbl.t }
  | Write_back of {
      k : History.read_outcome -> unit;
      value : int;
      ts : Ts.t;
      acks : (int, unit) Hashtbl.t;
    }

type client = { cid : int; mutable op : op }

type t = {
  protocol : protocol;
  n : int;
  f : int;
  net : msg Network.t;
  engine : Engine.t;
  servers : server array;
  clients : client array;
  history : Ts.t History.t;
  fault_rng : Rng.t;
  mutable write_counter : int; (* Mr_safe's writer stamps its writes from this counter *)
}

let quorum t = match t.protocol with Abd -> (t.n / 2) + 1 | Kanjani | Mr_safe -> t.n - t.f

let server_ids t = List.init t.n (fun i -> i)

let broadcast t ~src msg = List.iter (fun dst -> Network.send t.net ~src ~dst msg) (server_ids t)

let handle_server t s ~src msg =
  match msg with
  | Read_q -> Network.send t.net ~src:s.sid ~dst:src (Read_r { value = s.value; ts = s.ts })
  | Ts_q -> Network.send t.net ~src:s.sid ~dst:src (Ts_r { ts = s.ts })
  | Write_q { value; ts } ->
      if Ts.prec s.ts ts then begin
        s.value <- value;
        s.ts <- ts
      end;
      Network.send t.net ~src:s.sid ~dst:src (Write_a { ts })
  | Read_r _ | Ts_r _ | Write_a _ -> ()

(* Highest-timestamped pair among the replies. *)
let highest got =
  Hashtbl.fold
    (fun _ (v, ts) (bv, bts) -> if Ts.prec bts ts then (v, ts) else (bv, bts))
    got (0, Ts.initial)

(* Highest-timestamped pair with at least f+1 witnesses. *)
let witnessed t got =
  let counts = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ pair ->
      Hashtbl.replace counts pair (1 + Option.value ~default:0 (Hashtbl.find_opt counts pair)))
    got;
  Hashtbl.fold
    (fun (v, ts) c best ->
      if c >= t.f + 1 then
        match best with
        | Some (_, bts) when Ts.prec ts bts -> best
        | _ -> Some (v, ts)
      else best)
    counts None

let finish c k x =
  c.op <- Idle;
  k x

let handle_client t c ~src msg =
  match msg, c.op with
  | Ts_r { ts }, Ts_collect { value; k; got } when src < t.n ->
      Hashtbl.replace got src ts;
      if Hashtbl.length got >= quorum t then begin
        let wts = Ts.next ~writer:c.cid (Hashtbl.fold (fun _ ts acc -> ts :: acc) got []) in
        c.op <- Write_wait { k; ts = wts; acks = Hashtbl.create 8 };
        broadcast t ~src:c.cid (Write_q { value; ts = wts })
      end
  | Write_a { ts }, Write_wait { k; ts = wts; acks } when src < t.n && Ts.equal ts wts ->
      Hashtbl.replace acks src ();
      if Hashtbl.length acks >= quorum t then finish c k wts
  | Read_r { value; ts }, Read_collect { k; got } when src < t.n -> (
      Hashtbl.replace got src (value, ts);
      let n_got = Hashtbl.length got in
      if n_got >= quorum t then
        match t.protocol with
        | Abd ->
            (* Write the winning pair back before returning: the
               atomicity phase. *)
            let value, ts = highest got in
            c.op <- Write_back { k; value; ts; acks = Hashtbl.create 8 };
            broadcast t ~src:c.cid (Write_q { value; ts })
        | Kanjani | Mr_safe -> (
            match witnessed t got with
            | Some (v, _) -> finish c k (History.Value v)
            (* Kanjani waits for stragglers and gives up only when every
               server has answered; Mr_safe gives up at the quorum. *)
            | None when t.protocol = Kanjani && n_got < t.n -> ()
            | None -> finish c k History.Abort))
  | Write_a { ts }, Write_back { k; value; ts = rts; acks } when src < t.n && Ts.equal ts rts ->
      Hashtbl.replace acks src ();
      if Hashtbl.length acks >= quorum t then finish c k (History.Value value)
  | _ -> ()

let create ?(seed = 42L) ?(delay = Delay.uniform ~max:10) protocol ~n ~f ~clients () =
  let bound = match protocol with Abd -> 2 * f | Kanjani -> 3 * f | Mr_safe -> 4 * f in
  if n <= bound then invalid_arg (Printf.sprintf "Baseline.create: n must be > %d" bound);
  if protocol = Mr_safe && clients < 1 then
    invalid_arg "Baseline.create: Mr_safe needs its writer client";
  let engine = Engine.create ~seed () in
  let net = Network.create engine ~endpoints:(n + clients) ~servers:n ~delay () in
  let t =
    {
      protocol;
      n;
      f;
      net;
      engine;
      servers = Array.init n (fun sid -> { sid; value = 0; ts = Ts.initial });
      clients = Array.init clients (fun i -> { cid = n + i; op = Idle });
      history = History.create ();
      fault_rng = Rng.split (Engine.rng engine);
      write_counter = 0;
    }
  in
  Array.iter
    (fun s -> Network.register net s.sid (fun ~dst:_ ~src msg -> handle_server t s ~src msg))
    t.servers;
  Array.iter
    (fun c -> Network.register net c.cid (fun ~dst:_ ~src msg -> handle_client t c ~src msg))
    t.clients;
  t

let client t cid =
  if cid < t.n || cid >= t.n + Array.length t.clients then invalid_arg "Baseline: not a client id";
  t.clients.(cid - t.n)

let clients t = List.init (Array.length t.clients) (fun i -> t.n + i)

let writers t = match t.protocol with Mr_safe -> [ t.n ] | Abd | Kanjani -> clients t

let write t ~client:cid ~value ?(k = fun () -> ()) () =
  let c = client t cid in
  if t.protocol = Mr_safe && cid <> t.n then
    invalid_arg "Baseline.write: Mr_safe's single writer is client n";
  if c.op <> Idle then invalid_arg "Baseline.write: client busy";
  let op = History.begin_write t.history ~client:cid ~value ~time:(Engine.now t.engine) in
  let k wts =
    History.end_write t.history ~id:op ~time:(Engine.now t.engine) ~ts:(Some wts);
    k ()
  in
  match t.protocol with
  | Abd | Kanjani ->
      c.op <- Ts_collect { value; k; got = Hashtbl.create 8 };
      broadcast t ~src:cid Ts_q
  | Mr_safe ->
      t.write_counter <- t.write_counter + 1;
      let wts = { Ts.ts = t.write_counter; writer = cid } in
      c.op <- Write_wait { k; ts = wts; acks = Hashtbl.create 8 };
      broadcast t ~src:cid (Write_q { value; ts = wts })

let read t ~client:cid ?(k = fun _ -> ()) () =
  let c = client t cid in
  if c.op <> Idle then invalid_arg "Baseline.read: client busy";
  let op = History.begin_read t.history ~client:cid ~time:(Engine.now t.engine) in
  c.op <-
    Read_collect
      {
        k =
          (fun outcome ->
            History.end_read t.history ~id:op ~time:(Engine.now t.engine) ~outcome;
            k outcome);
        got = Hashtbl.create 8;
      };
  broadcast t ~src:cid Read_q

let quiesce ?(max_events = 5_000_000) t = Engine.run ~max_events t.engine

let history t = t.history

let engine t = t.engine

let crash_server t id = Network.crash t.net id

let make_byzantine t id =
  let rng = Rng.split t.fault_rng in
  (* Each protocol's forged read reply.  ABD has no witness threshold,
     so the forger's winning timestamp is believed. *)
  let forged ~src =
    match t.protocol with
    | Abd -> Read_r { value = -999; ts = { Ts.ts = 1_000_000 + Rng.int rng 1000; writer = id } }
    | Kanjani -> Read_r { value = -700 - src; ts = { Ts.ts = Rng.int rng 100; writer = id } }
    | Mr_safe -> Read_r { value = -500 - src; ts = { Ts.ts = Rng.int rng 50; writer = id } }
  in
  Network.register t.net id (fun ~dst:_ ~src msg ->
      match msg with
      | Read_q -> Network.send t.net ~src:id ~dst:src (forged ~src)
      | Ts_q -> Network.send t.net ~src:id ~dst:src (Ts_r { ts = Ts.initial })
      | Write_q { ts; _ } -> Network.send t.net ~src:id ~dst:src (Write_a { ts })
      | _ -> ())

let corrupt_server t id =
  let s = t.servers.(id) in
  s.value <- Rng.int_in t.fault_rng (-1_000_000) 1_000_000;
  s.ts <- Ts.random t.fault_rng

let poison t ~ids =
  (* Correlated transient corruption: the same planted pair lands on
     several servers at once (think zeroed pages or a replicated bad
     snapshot).  The planted timestamp is the maximum representable
     integer: the "unbounded" scheme lives in a bounded machine word,
     so the writers' max+1 overflows and can never dominate it again —
     precisely the failure bounded labels are designed out of. *)
  let pair_ts = { Ts.ts = max_int; writer = 0 } in
  List.iter
    (fun id ->
      let s = t.servers.(id) in
      s.value <- -31337;
      s.ts <- pair_ts)
    ids

let corrupt_channels t ~density =
  Network.corrupt_channels t.net t.fault_rng ~density (fun rng ->
      Read_r { value = Rng.int_in rng (-1000) 1000; ts = Ts.random rng })

let max_ts t = Array.fold_left (fun acc s -> max acc s.ts.Ts.ts) 0 t.servers
