module Engine = Sbft_sim.Engine
module Rng = Sbft_sim.Rng
module Metrics = Sbft_sim.Metrics
module Names = Sbft_sim.Metric_names
module Trace = Sbft_sim.Trace
module Event = Sbft_sim.Event
module Profile = Sbft_sim.Profile

type 'msg handler = dst:int -> src:int -> 'msg -> unit

(* The empty slot of [handlers], told apart by physical equality. *)
let no_handler ~dst:_ ~src:_ _ = ()

type transport = Direct | Over_datalink of { capacity : int; loss : float; max_delay : int }

type 'msg kinds = { index : 'msg -> int; names : string array }

type 'msg t = {
  engine : Engine.t;
  n : int;
  servers : int;
  (* endpoints [0, servers) run server automata; the rest are clients.
     Sets which row holds a channel's frontier (see [enqueue]) and which
     profiler phase a handler's time is charged to. *)
  profile : Profile.t;
  rng : Rng.t;
  delay : Delay.t;
  handlers : 'msg handler array; (* [no_handler] until registered *)
  frontier : int array array;
  (* Per channel, the last scheduled delivery time (0: nothing scheduled
     yet); later sends are never scheduled at or before it, which is
     what makes every channel FIFO regardless of the delay policy.  A
     row is the empty array until one of its channels is first used and
     spans only the cells used so far (see [enqueue]), so channel state
     follows the traffic. *)
  mutable slow : int array; (* [src * n + dst]; empty (all 1) until the first [set_slow] *)
  mutable tamper : (src:int -> dst:int -> 'msg -> 'msg option) option;
  kinds : 'msg kinds option;
  down : Bytes.t; (* byte [id] is non-zero once endpoint [id] crashed *)
  mutable queued : int;
  transport : transport;
  links : (int * 'msg) Datalink.t option array;
  (* [src * n + dst], empty unless [Over_datalink]; each link is built on
     its channel's first send.  The payload carries the span id of the
     send so attribution survives the data-link's own queueing. *)
  mutable groups : int array option; (* partition: group id per endpoint *)
  mutable span_ctx : int;
  (* the span id of the operation currently executing: [send] stamps it
     on outgoing messages, [deliver] installs the incoming message's
     span around the handler so replies inherit the request's span *)
  parked_q : (int * int * int * 'msg) Queue.t; (* parked (src, dst, span, msg), in order *)
  mutable observer : (event:[ `Send | `Deliver ] -> src:int -> dst:int -> 'msg -> unit) option;
  node_sent : int array; (* per-endpoint breakdown for the metrics artifact *)
  node_delivered : int array;
  (* Counter handles resolved once at creation: [send]/[deliver] run
     per message, and the name lookup (plus the per-kind key-string
     concatenation) dominated their metrics cost. *)
  sent_c : Metrics.counter;
  delivered_c : Metrics.counter;
  dropped_c : Metrics.counter;
  parked_c : Metrics.counter;
  kind_sent : Metrics.counter option array;
      (* by kind index, resolved at the kind's first send so a counter
         appears exactly when the kind is first sent *)
}

let create engine ~endpoints ?(servers = 0) ~delay ?kinds ?(transport = Direct) () =
  let m = Engine.metrics engine in
  {
    engine;
    n = endpoints;
    servers;
    profile = Engine.profile engine;
    rng = Rng.split (Engine.rng engine);
    delay;
    handlers = Array.make endpoints no_handler;
    frontier = Array.make endpoints [||];
    slow = [||];
    tamper = None;
    kinds;
    down = Bytes.make endpoints '\000';
    queued = 0;
    transport;
    links =
      (match transport with
      | Direct -> [||]
      | Over_datalink _ -> Array.make (endpoints * endpoints) None);
    groups = None;
    span_ctx = Event.no_span;
    parked_q = Queue.create ();
    observer = None;
    node_sent = Array.make endpoints 0;
    node_delivered = Array.make endpoints 0;
    sent_c = Metrics.counter m Names.net_sent;
    delivered_c = Metrics.counter m Names.net_delivered;
    dropped_c = Metrics.counter m Names.net_dropped;
    parked_c = Metrics.counter m Names.net_parked;
    kind_sent =
      (match kinds with Some k -> Array.make (Array.length k.names) None | None -> [||]);
  }

let engine t = t.engine

let endpoints t = t.n

let chan t ~src ~dst = (src * t.n) + dst

let register t id handler = t.handlers.(id) <- handler

let crash t id = Bytes.set t.down id '\001'

let crashed t id = Bytes.get t.down id <> '\000'

let set_slow t ~src ~dst ~factor =
  if Array.length t.slow = 0 then t.slow <- Array.make (t.n * t.n) 1;
  t.slow.(chan t ~src ~dst) <- Int.max 1 factor

let slow_factor t ~src ~dst = if Array.length t.slow = 0 then 1 else t.slow.(chan t ~src ~dst)

let set_slow_node t id ~factor =
  for other = 0 to t.n - 1 do
    set_slow t ~src:id ~dst:other ~factor;
    set_slow t ~src:other ~dst:id ~factor
  done

let set_tamper t hook = t.tamper <- hook

let current_span t = t.span_ctx

(* A plain save/restore: [Fun.protect] would allocate two more
   closures on every protocol phase. *)
let with_span t span f =
  let saved = t.span_ctx in
  t.span_ctx <- span;
  match f () with
  | v ->
      t.span_ctx <- saved;
      v
  | exception e ->
      t.span_ctx <- saved;
      raise e

let observe t hook = t.observer <- hook

let notify t event ~src ~dst msg =
  match t.observer with Some f -> f ~event ~src ~dst msg | None -> ()

let kind_of t msg = match t.kinds with Some k -> k.names.(k.index msg) | None -> ""

let count_kind t k msg =
  let i = k.index msg in
  match t.kind_sent.(i) with
  | Some c -> Metrics.counter_incr c
  | None ->
      let c = Metrics.counter (Engine.metrics t.engine) (Names.net_sent_kind_prefix ^ k.names.(i)) in
      t.kind_sent.(i) <- Some c;
      Metrics.counter_incr c

let drop t ~span ~src ~dst ~kind reason =
  Metrics.counter_incr t.dropped_c;
  let tr = Engine.trace t.engine in
  if Trace.admits tr ~span then
    Trace.emit tr ~time:(Engine.now t.engine) (Event.Msg_dropped { src; dst; kind; reason; span })

(* Hand [payload] (the sent [msg], or what the tamper hook made of it)
   to [dst]'s handler with [span] installed.  Allocation-free: the span
   is saved and restored inline instead of through a [with_span]
   closure. *)
let dispatch t ~span ~src ~dst msg payload =
  let h = t.handlers.(dst) in
  if h == no_handler then drop t ~span ~src ~dst ~kind:(kind_of t msg) "no_handler"
  else begin
    Metrics.counter_incr t.delivered_c;
    t.node_delivered.(dst) <- t.node_delivered.(dst) + 1;
    let tr = Engine.trace t.engine in
    if Trace.admits tr ~span then
      Trace.emit tr ~time:(Engine.now t.engine)
        (Event.Msg_delivered { src; dst; kind = kind_of t payload; span });
    notify t `Deliver ~src ~dst payload;
    Profile.enter t.profile (if dst < t.servers then Profile.Server_step else Profile.Client_step);
    let saved = t.span_ctx in
    t.span_ctx <- span;
    (match h ~dst ~src payload with
    | () -> t.span_ctx <- saved
    | exception e ->
        t.span_ctx <- saved;
        raise e);
    Profile.leave t.profile
  end

let deliver t ~span ~src ~dst msg =
  Profile.enter t.profile Profile.Delivery;
  (if crashed t dst then drop t ~span ~src ~dst ~kind:(kind_of t msg) "crashed"
   else
     match t.tamper with
     | None -> dispatch t ~span ~src ~dst msg msg
     | Some hook -> (
         match hook ~src ~dst msg with
         | Some payload -> dispatch t ~span ~src ~dst msg payload
         | None -> drop t ~span ~src ~dst ~kind:(kind_of t msg) "tampered"));
  Profile.leave t.profile

(* [owner]'s frontier row, at least [len] cells long: a longer row
   copies the old one, so every frontier, and with it FIFO order,
   carries over. *)
let frontier_row t owner len =
  let row = t.frontier.(owner) in
  if len <= Array.length row then row
  else begin
    let wide = Array.make len 0 in
    Array.blit row 0 wide 0 (Array.length row);
    t.frontier.(owner) <- wide;
    wide
  end

(* The cell of channel [src -> dst].  A client [c]'s row holds both
   directions of its channels to the servers, [c -> j] at [j] and
   [j -> c] at [servers + j], and from its first send to another client
   [d] on, [c -> d] at [servers + d]; a server's row holds its channels
   to servers, which carry only garbage and forgeries.  So a server
   keeps nothing for the clients it answers, no two channels share a
   cell, and without servers every row is indexed by [dst]. *)
let enqueue t ~span ~src ~dst ~delay_ticks msg =
  let s = t.servers in
  let owner = if src < s && dst >= s then dst else src in
  let i = if dst < s then dst else if src < s then s + src else s + dst in
  let row = frontier_row t owner (if owner < s then s else if i < 2 * s then 2 * s else s + t.n) in
  let now = Engine.now t.engine in
  let at = Int.max (now + Int.max 1 delay_ticks) (row.(i) + 1) in
  row.(i) <- at;
  t.queued <- t.queued + 1;
  Engine.schedule t.engine ~delay:(at - now) (fun () ->
      t.queued <- t.queued - 1;
      deliver t ~span ~src ~dst msg)

let link t ~src ~dst ~capacity ~loss ~max_delay =
  let c = chan t ~src ~dst in
  match t.links.(c) with
  | Some l -> l
  | None ->
      let l =
        Datalink.create t.engine ~capacity ~loss ~max_delay
          ~deliver:(fun (span, msg) -> deliver t ~span ~src ~dst msg)
          ()
      in
      t.links.(c) <- Some l;
      l

let partitioned t ~src ~dst =
  match t.groups with
  | None -> false
  | Some g -> g.(src) <> g.(dst) || g.(src) < 0 || g.(dst) < 0

let transmit_now t ~span ~src ~dst msg =
  match t.transport with
  | Direct ->
      let d = t.delay t.rng ~src ~dst * slow_factor t ~src ~dst in
      enqueue t ~span ~src ~dst ~delay_ticks:d msg
  | Over_datalink { capacity; loss; max_delay } ->
      let max_delay = max_delay * slow_factor t ~src ~dst in
      Datalink.send (link t ~src ~dst ~capacity ~loss ~max_delay) (span, msg)

let send t ~src ~dst msg =
  if not (crashed t src) then begin
    Profile.enter t.profile Profile.Delivery;
    let span = t.span_ctx in
    Metrics.counter_incr t.sent_c;
    t.node_sent.(src) <- t.node_sent.(src) + 1;
    (match t.kinds with Some k -> count_kind t k msg | None -> ());
    let tr = Engine.trace t.engine in
    if Trace.admits tr ~span then
      Trace.emit tr ~time:(Engine.now t.engine)
        (Event.Msg_sent { src; dst; kind = kind_of t msg; span });
    notify t `Send ~src ~dst msg;
    (if partitioned t ~src ~dst then begin
       Metrics.counter_incr t.parked_c;
       Queue.push (src, dst, span, msg) t.parked_q
     end
     else transmit_now t ~span ~src ~dst msg);
    Profile.leave t.profile
  end

let partition t ~groups =
  let g = Array.make t.n (-1) in
  List.iteri (fun gid members -> List.iter (fun e -> if e >= 0 && e < t.n then g.(e) <- gid) members) groups;
  (* Unlisted endpoints stay at -1: isolated singletons. *)
  t.groups <- Some g

let heal t =
  t.groups <- None;
  (* Release parked traffic in order; enqueue keeps per-channel FIFO. *)
  Queue.iter (fun (src, dst, span, msg) -> transmit_now t ~span ~src ~dst msg) t.parked_q;
  Queue.clear t.parked_q

let parked t = Queue.length t.parked_q

let broadcast t ~src ~dst msg = List.iter (fun d -> send t ~src ~dst:d msg) dst

let inject t ~src ~dst msg =
  Metrics.incr (Engine.metrics t.engine) Names.net_injected;
  enqueue t ~span:Event.no_span ~src ~dst ~delay_ticks:1 msg

let corrupt_channels t rng ~density garbage =
  for src = 0 to t.n - 1 do
    for dst = 0 to t.n - 1 do
      if src <> dst && Rng.chance rng density then inject t ~src ~dst (garbage rng)
    done
  done

let in_flight t = t.queued

let node_counters t =
  Array.init t.n (fun i -> (t.node_sent.(i), t.node_delivered.(i)))
