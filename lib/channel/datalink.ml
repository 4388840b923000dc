module Engine = Sbft_sim.Engine
module Rng = Sbft_sim.Rng
module Metrics = Sbft_sim.Metrics
module Names = Sbft_sim.Metric_names
module Trace = Sbft_sim.Trace
module Event = Sbft_sim.Event

type 'a pkt = { label : int; payload : 'a }

type stats = { delivered : int; transmissions : int; acks : int }

type 'a t = {
  engine : Engine.t;
  rng : Rng.t;
  capacity : int;
  labels : int; (* label cycle length: 2 * capacity + 1 *)
  retransmit_every : int;
  mutable data_chan : 'a pkt Lossy.t option;
  mutable ack_chan : int Lossy.t option;
  (* Sender. *)
  outbox : 'a Queue.t;
  mutable sender_label : int;
  mutable current : 'a pkt option;
  mutable current_since : int; (* first-transmit time of [current], for the ack RTT *)
  mutable acks_got : int;
  mutable timer_armed : bool;
  (* Receiver. *)
  mutable last_label : int;
  copies : (int * 'a, int) Hashtbl.t;
  (* copies received per (label, payload) since the last delivery; a
     payload is only delivered once capacity + 1 identical copies have
     arrived, which at most [capacity] stale packets can never fake. *)
  deliver : 'a -> unit;
  (* Stats. *)
  mutable delivered : int;
  mutable transmissions : int;
  mutable acks_sent : int;
}

let data_chan t = Option.get t.data_chan

let ack_chan t = Option.get t.ack_chan

let transmit t pkt =
  t.transmissions <- t.transmissions + 1;
  Metrics.incr (Engine.metrics t.engine) Names.dl_transmissions;
  Lossy.send (data_chan t) pkt

let retransmit t pkt =
  Metrics.incr (Engine.metrics t.engine) Names.dl_retransmissions;
  let tr = Engine.trace t.engine in
  if Trace.admits tr ~span:Event.no_span then
    Trace.emit tr ~time:(Engine.now t.engine) (Event.Retransmit { label = pkt.label });
  transmit t pkt

let rec arm_timer t =
  if not t.timer_armed then begin
    t.timer_armed <- true;
    Engine.schedule t.engine ~delay:t.retransmit_every (fun () ->
        t.timer_armed <- false;
        match t.current with
        | Some pkt ->
            retransmit t pkt;
            arm_timer t
        | None -> ())
  end

let start_next t =
  if t.current = None && not (Queue.is_empty t.outbox) then begin
    t.sender_label <- (t.sender_label + 1) mod t.labels;
    let pkt = { label = t.sender_label; payload = Queue.pop t.outbox } in
    t.current <- Some pkt;
    t.current_since <- Engine.now t.engine;
    t.acks_got <- 0;
    transmit t pkt;
    arm_timer t
  end

let on_ack t label =
  match t.current with
  | Some pkt when pkt.label = label ->
      t.acks_got <- t.acks_got + 1;
      if t.acks_got >= t.capacity + 1 then begin
        let rtt = Engine.now t.engine - t.current_since in
        Metrics.record (Engine.metrics t.engine) Names.dl_ack_rtt_ticks (float_of_int rtt);
        let tr = Engine.trace t.engine in
        if Trace.admits tr ~span:Event.no_span then
          Trace.emit tr ~time:(Engine.now t.engine) (Event.Ack_roundtrip { label; ticks = rtt });
        t.current <- None;
        start_next t
      end
  | _ -> ()

let ack t label =
  t.acks_sent <- t.acks_sent + 1;
  Metrics.incr (Engine.metrics t.engine) Names.dl_acks;
  Lossy.send (ack_chan t) label

let on_data t pkt =
  if pkt.label = t.last_label then
    (* Current generation already delivered: keep acknowledging so the
       sender can finish collecting its capacity + 1 acks. *)
    ack t pkt.label
  else begin
    let key = (pkt.label, pkt.payload) in
    let count = 1 + Option.value ~default:0 (Hashtbl.find_opt t.copies key) in
    Hashtbl.replace t.copies key count;
    if count >= t.capacity + 1 then begin
      Hashtbl.reset t.copies;
      t.last_label <- pkt.label;
      t.delivered <- t.delivered + 1;
      t.deliver pkt.payload;
      ack t pkt.label
    end
  end

let create engine ~capacity ~loss ~max_delay ~deliver () =
  let t =
    {
      engine;
      rng = Rng.split (Engine.rng engine);
      capacity;
      labels = (2 * capacity) + 1;
      retransmit_every = max 1 max_delay;
      data_chan = None;
      ack_chan = None;
      outbox = Queue.create ();
      sender_label = 0;
      current = None;
      current_since = 0;
      acks_got = 0;
      timer_armed = false;
      last_label = 0;
      copies = Hashtbl.create 16;
      deliver;
      delivered = 0;
      transmissions = 0;
      acks_sent = 0;
    }
  in
  t.data_chan <- Some (Lossy.create engine ~capacity ~loss ~max_delay ~handler:(on_data t));
  t.ack_chan <- Some (Lossy.create engine ~capacity ~loss ~max_delay ~handler:(on_ack t));
  t

let send t payload =
  Queue.push payload t.outbox;
  start_next t

let backlog t = Queue.length t.outbox + match t.current with Some _ -> 1 | None -> 0

let corrupt t ~garbage =
  t.sender_label <- Rng.int t.rng t.labels;
  t.last_label <- Rng.int t.rng t.labels;
  t.acks_got <- Rng.int t.rng (t.capacity + 2);
  Hashtbl.reset t.copies;
  List.iter
    (fun _ ->
      Hashtbl.replace t.copies
        (Rng.int t.rng t.labels, garbage t.rng)
        (Rng.int t.rng (t.capacity + 1)))
    (List.init (Rng.int t.rng 4) Fun.id);
  let garbage_pkts =
    List.init (Rng.int_in t.rng 1 t.capacity) (fun _ ->
        { label = Rng.int t.rng t.labels; payload = garbage t.rng })
  in
  Lossy.preload (data_chan t) garbage_pkts;
  let garbage_acks = List.init (Rng.int_in t.rng 1 t.capacity) (fun _ -> Rng.int t.rng t.labels) in
  Lossy.preload (ack_chan t) garbage_acks;
  (* Keep the retransmission loop alive for whatever packet was in
     flight, so a corrupted sender cannot deadlock. *)
  (match t.current with Some _ -> arm_timer t | None -> start_next t)

let stats t = { delivered = t.delivered; transmissions = t.transmissions; acks = t.acks_sent }
