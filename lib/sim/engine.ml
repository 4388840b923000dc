type t = {
  mutable clock : int;
  mutable seq : int;
  mutable fired : int;
  mutable daemons : int;
  mutable spans : int;
  heap : (unit -> unit) Heap.t;
  master_rng : Rng.t;
  metrics : Metrics.t;
  trace : Trace.t;
  profile : Profile.t;
}

exception Budget_exhausted

let create ?(trace_level = Trace.Off) ?(trace_capacity = 4096) ?sample ?sample_seed ~seed () =
  {
    clock = 0;
    seq = 0;
    fired = 0;
    daemons = 0;
    spans = 0;
    heap = Heap.create ();
    master_rng = Rng.create seed;
    metrics = Metrics.create ();
    trace = Trace.create ~capacity:trace_capacity ?sample ?sample_seed ~level:trace_level ();
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

let push t ~time f =
  Heap.push t.heap ~time ~seq:t.seq f;
  t.seq <- t.seq + 1

(* Daemon events are observation probes (telemetry, progress) that
   re-arm themselves while real work remains.  They must not count as
   pending work, or two probes would each see the other's next poll
   and keep the engine alive forever — and a probe attached only at
   record time would change another probe's re-arm decisions, breaking
   replay. *)
let schedule ?(daemon = false) t ~delay f =
  let time = t.clock + max 1 delay in
  if daemon then begin
    t.daemons <- t.daemons + 1;
    push t ~time (fun () ->
        t.daemons <- t.daemons - 1;
        f ())
  end
  else push t ~time f

let schedule_now t f = push t ~time:t.clock f

let pending t = Heap.size t.heap - t.daemons

let step t =
  let time = Heap.min_time t.heap in
  if time = Heap.no_event then false
  else begin
    let f = Heap.take t.heap in
    if time > t.clock then t.clock <- time;
    t.fired <- t.fired + 1;
    f ();
    true
  end

(* The inner loop fires millions of events per second, so the optional
   bounds are hoisted to plain ints once and the heap is probed through
   the flat [min_time]/[take] pair — no [option] or tuple is built per
   event.  [Heap.no_event] is [max_int], so an empty heap also reads as
   "past any bound". *)
let run ?until ?max_events t =
  let until = match until with Some u -> u | None -> max_int in
  let budget = match max_events with Some m -> m | None -> max_int in
  let fired = ref 0 in
  let continue = ref true in
  while !continue do
    let next = Heap.min_time t.heap in
    if next = Heap.no_event || next > until then continue := false
    else begin
      if !fired >= budget then raise Budget_exhausted;
      let f = Heap.take t.heap in
      if next > t.clock then t.clock <- next;
      t.fired <- t.fired + 1;
      f ();
      incr fired
    end
  done

