(* The event queue is a timing wheel of one-tick FIFO buckets backed by
   the binary [Heap] for far-future events.

   Two invariants make the wheel exact:
   - no event is scheduled before the clock ([schedule] adds at least
     one tick, [schedule_now] adds zero), so every wheel event is due
     at or after [clock] (a delay that wraps the due time around is
     far more than [width] and goes to [overflow]; see [fire]);
   - seqs only grow, so appending to a bucket keeps it in seq order.
   An event due less than [width] ticks ahead goes to the bucket
   [time land mask].  Every wheel event is then due in
   [clock, clock + width), so a bucket holds events of one due time
   only, in (time, seq) order.  Anything due later goes to [overflow]
   and stays there until it fires; each pop compares the two queues'
   heads by (time, seq), so the firing order is exactly the heap's.

   The buckets are singly linked lists threaded through a slot pool of
   plain int arrays, with freed slots reused first.  A wheel event
   costs two pointer stores: the thunk on schedule, the idle
   placeholder on fire. *)

let width = 256 (* ticks; a power of two wider than every delay policy in use *)

let mask = width - 1

let no_slot = -1

let idle () = ()

type t = {
  mutable clock : int;
  mutable seq : int;
  mutable fired : int;
  mutable daemons : int;
  mutable spans : int;
  head : int array; (* bucket -> its first slot, or [no_slot] *)
  tail : int array; (* bucket -> its last slot, when [head] is one *)
  mutable next : int array; (* slot -> next slot of its bucket, or of the free list *)
  mutable seqs : int array; (* slot -> seq of its event *)
  mutable thunks : (unit -> unit) array; (* slot -> its event, [idle] when free *)
  mutable free : int; (* first free slot, or [no_slot] *)
  mutable wheeled : int; (* events in the wheel *)
  mutable cursor : int; (* no wheel event is due before this time *)
  mutable from_wheel : bool; (* where [peek] found the earliest event *)
  overflow : (unit -> unit) Heap.t; (* events due [width] or more ticks ahead *)
  master_rng : Rng.t;
  metrics : Metrics.t;
  trace : Trace.t;
  profile : Profile.t;
}

exception Budget_exhausted

let create ?(trace_level = Trace.Off) ?sample ~seed () =
  {
    clock = 0;
    seq = 0;
    fired = 0;
    daemons = 0;
    spans = 0;
    head = Array.make width no_slot;
    tail = Array.make width no_slot;
    next = [||];
    seqs = [||];
    thunks = [||];
    free = no_slot;
    wheeled = 0;
    cursor = 0;
    from_wheel = false;
    overflow = Heap.create ();
    master_rng = Rng.create seed;
    metrics = Metrics.create ();
    trace = Trace.create ?sample ~level:trace_level ();
    profile = Profile.create ();
  }

let now t = t.clock

let rng t = t.master_rng

let metrics t = t.metrics

let trace t = t.trace

let profile t = t.profile

let events_fired t = t.fired

(* Span ids come from a plain counter, never the RNG: allocation order
   is the simulation's own event order, so ids are identical across
   replays and across trace levels. *)
let fresh_span t =
  let s = t.spans in
  t.spans <- s + 1;
  s

let spans_allocated t = t.spans

(* Double the slot pool and thread the new slots onto the free list. *)
let grow t =
  let cap = Array.length t.seqs in
  let ncap = Int.max 64 (2 * cap) in
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  let next = extend t.next no_slot in
  for s = cap to ncap - 2 do
    next.(s) <- s + 1
  done;
  t.next <- next;
  t.seqs <- extend t.seqs 0;
  t.thunks <- extend t.thunks idle;
  t.free <- cap

let push t ~time f =
  let seq = t.seq in
  t.seq <- seq + 1;
  if time - t.clock < width then begin
    if t.free = no_slot then grow t;
    let s = t.free in
    t.free <- t.next.(s);
    t.next.(s) <- no_slot;
    t.seqs.(s) <- seq;
    t.thunks.(s) <- f;
    let b = time land mask in
    if t.head.(b) = no_slot then t.head.(b) <- s else t.next.(t.tail.(b)) <- s;
    t.tail.(b) <- s;
    t.wheeled <- t.wheeled + 1;
    if time < t.cursor then t.cursor <- time
  end
  else Heap.push t.overflow ~time ~seq f

(* Daemon events are observation probes (telemetry, progress) that
   re-arm themselves while real work remains.  They must not count as
   pending work, or two probes would each see the other's next poll
   and keep the engine alive forever — and a probe attached only at
   record time would change another probe's re-arm decisions, breaking
   replay. *)
let schedule ?(daemon = false) t ~delay f =
  let time = t.clock + Int.max 1 delay in
  if daemon then begin
    t.daemons <- t.daemons + 1;
    push t ~time (fun () ->
        t.daemons <- t.daemons - 1;
        f ())
  end
  else push t ~time f

let schedule_now t f = push t ~time:t.clock f

let pending t = t.wheeled + Heap.size t.overflow - t.daemons

(* Due time of the earliest wheel event, or [Heap.no_event].  The scan
   starts at the clock at the earliest — a bucket behind it would hold
   an event a whole turn ahead — and ends within [width] buckets, at
   the first non-empty one. *)
let wheel_min t =
  if t.wheeled = 0 then Heap.no_event
  else begin
    let c = ref (if t.cursor < t.clock then t.clock else t.cursor) in
    while t.head.(!c land mask) = no_slot do
      incr c
    done;
    t.cursor <- !c;
    !c
  end

(* Due time of the earliest event by (time, seq), or [Heap.no_event];
   records in [from_wheel] which queue holds it. *)
let peek t =
  let w = wheel_min t and h = Heap.min_time t.overflow in
  let from_wheel =
    w < h || (w = h && w <> Heap.no_event && t.seqs.(t.head.(w land mask)) < Heap.min_seq t.overflow)
  in
  t.from_wheel <- from_wheel;
  if from_wheel then w else h

(* Fire the event [peek] found, due at [time].  A delay so large that
   the due time wrapped around is the one way an event can be due
   before the clock; it fires next, as in the heap, and the clock does
   not move back. *)
let fire t time =
  let f =
    if t.from_wheel then begin
      let b = time land mask in
      let s = t.head.(b) in
      let f = t.thunks.(s) in
      t.thunks.(s) <- idle;
      t.head.(b) <- t.next.(s);
      t.next.(s) <- t.free;
      t.free <- s;
      t.wheeled <- t.wheeled - 1;
      f
    end
    else Heap.take t.overflow
  in
  if time > t.clock then t.clock <- time;
  t.fired <- t.fired + 1;
  f ()

let step t =
  let time = peek t in
  if time = Heap.no_event then false
  else begin
    fire t time;
    true
  end

(* The inner loop fires millions of events per second, so the optional
   bounds are hoisted to plain ints once and the queues are probed
   through [peek]/[fire] — no [option] or tuple is built per event.
   [Heap.no_event] is [max_int], so an empty queue also reads as "past
   any bound". *)
let run ?until ?max_events t =
  let until = match until with Some u -> u | None -> max_int in
  let budget = match max_events with Some m -> m | None -> max_int in
  let fired = ref 0 in
  let continue = ref true in
  while !continue do
    let time = peek t in
    if time = Heap.no_event || time > until then continue := false
    else begin
      if !fired >= budget then raise Budget_exhausted;
      fire t time;
      incr fired
    end
  done
