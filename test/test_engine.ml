(* Tests for the discrete-event engine: clock, ordering, budgets. *)

open Sbft_sim

let test_clock_advances () =
  let e = Engine.create ~seed:1L () in
  let seen = ref [] in
  Engine.schedule e ~delay:10 (fun () -> seen := ("b", Engine.now e) :: !seen);
  Engine.schedule e ~delay:5 (fun () -> seen := ("a", Engine.now e) :: !seen);
  Engine.run e;
  Alcotest.(check (list (pair string int))) "order and times" [ ("a", 5); ("b", 10) ] (List.rev !seen)

let test_min_delay_enforced () =
  let e = Engine.create ~seed:1L () in
  let fired_at = ref (-1) in
  Engine.schedule e ~delay:0 (fun () -> fired_at := Engine.now e);
  Engine.run e;
  Alcotest.(check int) "delay 0 becomes 1" 1 !fired_at

let test_schedule_now_runs_this_instant () =
  let e = Engine.create ~seed:1L () in
  let seen = ref [] in
  Engine.schedule e ~delay:3 (fun () ->
      seen := "outer" :: !seen;
      Engine.schedule_now e (fun () -> seen := ("inner@" ^ string_of_int (Engine.now e)) :: !seen));
  Engine.run e;
  Alcotest.(check (list string)) "inner runs at same time" [ "outer"; "inner@3" ] (List.rev !seen)

let test_fifo_same_instant () =
  let e = Engine.create ~seed:1L () in
  let seen = ref [] in
  for i = 0 to 4 do
    Engine.schedule e ~delay:2 (fun () -> seen := i :: !seen)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "insertion order" [ 0; 1; 2; 3; 4 ] (List.rev !seen)

let test_until_stops_early () =
  let e = Engine.create ~seed:1L () in
  let fired = ref 0 in
  Engine.schedule e ~delay:5 (fun () -> incr fired);
  Engine.schedule e ~delay:50 (fun () -> incr fired);
  Engine.run ~until:10 e;
  Alcotest.(check int) "only first fired" 1 !fired;
  Alcotest.(check int) "second still pending" 1 (Engine.pending e)

let test_budget_exhausted () =
  let e = Engine.create ~seed:1L () in
  let rec spin () = Engine.schedule e ~delay:1 spin in
  spin ();
  Alcotest.check_raises "budget" Engine.Budget_exhausted (fun () -> Engine.run ~max_events:100 e)

let test_cascading_events () =
  let e = Engine.create ~seed:1L () in
  let count = ref 0 in
  let rec chain n = if n > 0 then Engine.schedule e ~delay:1 (fun () -> incr count; chain (n - 1)) in
  chain 1000;
  Engine.run e;
  Alcotest.(check int) "all chained events ran" 1000 !count;
  Alcotest.(check int) "clock tracked" 1000 (Engine.now e)

let test_step () =
  let e = Engine.create ~seed:1L () in
  Alcotest.(check bool) "step on empty" false (Engine.step e);
  Engine.schedule e ~delay:1 (fun () -> ());
  Alcotest.(check bool) "step fires" true (Engine.step e)

let test_metrics_attached () =
  let e = Engine.create ~seed:1L () in
  Metrics.incr (Engine.metrics e) "x";
  Alcotest.(check int) "metrics live" 1 (Metrics.get (Engine.metrics e) "x")

(* An event due at [max_int] or past it can never fire, so it must not
   be queued: it would count as pending work forever (a probe behind it
   would never stop re-arming) or, its due time wrapped below the
   clock, fire ahead of everything. *)
let test_never_due_not_queued () =
  let e = Engine.create ~seed:1L () in
  let fired = ref [] in
  let note name () = fired := (name, Engine.now e) :: !fired in
  Engine.schedule e ~delay:max_int (note "due at max_int");
  Alcotest.(check int) "due at max_int at clock 0: not pending" 0 (Engine.pending e);
  Engine.schedule e ~delay:5 (note "first");
  Alcotest.(check bool) "the clock moves to 5" true (Engine.step e);
  Engine.schedule e ~delay:max_int (note "wrapped");
  Engine.schedule e ~delay:(max_int - 5) (note "due at max_int");
  Engine.every e ~period:max_int (note "probe");
  Alcotest.(check int) "wrapped or due at max_int at clock 5: not pending" 0 (Engine.pending e);
  Engine.schedule e ~delay:3 (note "second");
  Engine.schedule e ~delay:(max_int - 6) (note "last tick");
  Alcotest.(check int) "due at max_int - 1: pending" 2 (Engine.pending e);
  Engine.run e;
  Alcotest.(check (list (pair string int)))
    "only representable events fire, in time order"
    [ ("first", 5); ("second", 8); ("last tick", max_int - 1) ]
    (List.rev !fired)

(* Two probes with no other work each tick once, then fall silent: a
   probe's next tick is not work, not even to the other probe. *)
let test_every_idle_probes () =
  let e = Engine.create ~seed:1L () in
  let a = ref [] and b = ref [] in
  Engine.every e ~period:10 (fun () -> a := Engine.now e :: !a);
  Engine.every e ~period:15 (fun () -> b := Engine.now e :: !b);
  Alcotest.(check int) "probe ticks are not pending work" 0 (Engine.pending e);
  Engine.run ~max_events:100 e;
  Alcotest.(check (list int)) "first probe ticked once" [ 10 ] !a;
  Alcotest.(check (list int)) "second probe ticked once" [ 15 ] !b

(* A probe watches and must not steer: every other event fires in the
   same order at the same time with or without it, and the probe
   stops at most one period after the last of them. *)
let test_every_leaves_events_in_place () =
  let go probe =
    let e = Engine.create ~seed:1L () in
    let log = ref [] and ticks = ref [] in
    let rec chain id n =
      if n > 0 then
        Engine.schedule e ~delay:((id * 37) + (n * 101) mod 300) (fun () ->
            log := (id, Engine.now e) :: !log;
            if n mod 3 = 0 then Engine.schedule_now e (fun () -> log := (-id, Engine.now e) :: !log);
            chain id (n - 1))
    in
    for id = 1 to 4 do
      chain id 12
    done;
    if probe then Engine.every e ~period:7 (fun () -> ticks := Engine.now e :: !ticks);
    Engine.run e;
    (List.rev !log, !ticks)
  in
  let without, _ = go false and with_probe, ticks = go true in
  Alcotest.(check (list (pair int int))) "same events, order and times" without with_probe;
  let last = List.fold_left (fun acc (_, t) -> max acc t) 0 without in
  Alcotest.(check bool) "the probe ticked" true (ticks <> []);
  Alcotest.(check bool) "and stopped at most one period after the last event" true
    (List.hd ticks >= last && List.hd ticks <= last + 7)

(* -- the event queue against a reference ------------------------------ *)

(* The reference engine: a [Heap] popped by (time, seq) — the queue the
   engine used before its timing wheel, and the order it must keep. *)
module Ref = struct
  type t = {
    mutable clock : int;
    mutable seq : int;
    mutable daemons : int;
    heap : (bool * (unit -> unit)) Heap.t;
  }

  let create () = { clock = 0; seq = 0; daemons = 0; heap = Heap.create () }

  let push t ~time ~daemon f =
    Heap.push t.heap ~time ~seq:t.seq (daemon, f);
    t.seq <- t.seq + 1;
    if daemon then t.daemons <- t.daemons + 1

  (* An event whose due time wraps around or lands on [max_int] could
     never fire, so it is never queued. *)
  let after t ~delay ~daemon f =
    let time = t.clock + max 1 delay in
    if time > t.clock && time <> max_int then push t ~time ~daemon f

  let schedule t ~delay f = after t ~delay ~daemon:false f

  let schedule_now t f = push t ~time:t.clock ~daemon:false f

  let pending t = Heap.size t.heap - t.daemons

  let every t ~period f =
    let rec tick () =
      f ();
      if pending t > 0 then after t ~delay:period ~daemon:true tick
    in
    after t ~delay:period ~daemon:true tick

  (* [Heap.no_event] doubles as the empty-queue sentinel: nothing due
     at [max_int] is ever queued. *)
  let step t =
    let time = Heap.min_time t.heap in
    if time = Heap.no_event then false
    else begin
      let daemon, f = Heap.take t.heap in
      if daemon then t.daemons <- t.daemons - 1;
      t.clock <- time;
      f ();
      true
    end

  let run ~until ~max_events t =
    let fired = ref 0 in
    let rec loop () =
      let time = Heap.min_time t.heap in
      if time <> Heap.no_event && time <= until then begin
        if !fired >= max_events then raise Engine.Budget_exhausted;
        ignore (step t);
        incr fired;
        loop ()
      end
    in
    loop ()
end

(* One scheduled event: [now] schedules at the current instant, a
   [probe] goes through [every] with [delay] as its period, and firing
   any other event schedules its [kids]. *)
type ev = { delay : int; now : bool; probe : bool; kids : ev list }

type cmd = Add of ev | Step | Run_budget of int | Run_until of int | Run_all

(* The operations a program needs, over either engine. *)
type 'e ops = {
  schedule : 'e -> delay:int -> (unit -> unit) -> unit;
  schedule_now : 'e -> (unit -> unit) -> unit;
  every : 'e -> period:int -> (unit -> unit) -> unit;
  now : 'e -> int;
  pending : 'e -> int;
  step : 'e -> bool;
  run : until:int -> max_events:int -> 'e -> unit;
}

let engine_ops =
  {
    schedule = Engine.schedule;
    schedule_now = Engine.schedule_now;
    every = Engine.every;
    now = Engine.now;
    pending = Engine.pending;
    step = Engine.step;
    run = (fun ~until ~max_events e -> Engine.run ~until ~max_events e);
  }

let ref_ops =
  {
    schedule = Ref.schedule;
    schedule_now = Ref.schedule_now;
    every = Ref.every;
    now = (fun (r : Ref.t) -> r.clock);
    pending = Ref.pending;
    step = Ref.step;
    run = Ref.run;
  }

(* Run [prog] and observe, after every command, the events fired so far
   (id and firing time), the clock and the pending count. *)
let interpret ops e prog =
  let log = ref [] and ids = ref 0 in
  let rec add ev =
    let id = !ids in
    incr ids;
    let fire () =
      log := (id, ops.now e) :: !log;
      List.iter add ev.kids
    in
    if ev.now then ops.schedule_now e fire
    else if ev.probe then ops.every e ~period:ev.delay fire
    else ops.schedule e ~delay:ev.delay fire
  in
  List.map
    (fun cmd ->
      let exhausted =
        match cmd with
        | Add ev ->
            add ev;
            false
        | Step ->
            ignore (ops.step e);
            false
        | Run_budget k -> (
            match ops.run ~until:max_int ~max_events:k e with
            | () -> false
            | exception Engine.Budget_exhausted -> true)
        | Run_until u ->
            ops.run ~until:(ops.now e + u) ~max_events:max_int e;
            false
        | Run_all ->
            ops.run ~until:max_int ~max_events:max_int e;
            false
      in
      (List.rev !log, ops.now e, ops.pending e, exhausted))
    (prog @ [ Run_all ])

let wheel = 256

let gen_delay =
  QCheck.Gen.(
    frequency
      [
        (6, int_range 0 12);
        (3, int_range 0 (3 * wheel));
        (1, oneofl [ wheel - 1; wheel; wheel + 1; (2 * wheel) - 1; 2 * wheel; max_int ]);
      ])

let rec gen_ev depth =
  QCheck.Gen.(
    let* delay = gen_delay and* now = frequencyl [ (5, false); (1, true) ] in
    let* probe = if now then return false else frequencyl [ (6, false); (1, true) ] in
    let* kids =
      if probe || depth = 0 then return [] else list_size (int_bound 3) (gen_ev (depth - 1))
    in
    return { delay; now; probe; kids })

let gen_cmd =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun ev -> Add ev) (gen_ev 2));
        (3, return Step);
        (1, map (fun k -> Run_budget k) (int_bound 20));
        (2, map (fun u -> Run_until u) (int_bound (3 * wheel)));
      ])

let qcheck_queue_matches_reference =
  QCheck.Test.make ~name:"engine: firing order, clock and pending match a (time, seq) heap"
    ~count:300
    (QCheck.make
       ~print:(fun p -> Printf.sprintf "%d commands" (List.length p))
       QCheck.Gen.(list_size (int_bound 60) gen_cmd))
    (fun prog ->
      interpret engine_ops (Engine.create ~seed:1L ()) prog
      = interpret ref_ops (Ref.create ()) prog)

(* A fired event's thunk must not stay reachable from the queue: track
   data it captured through a weak pointer, fire it, drop our own
   references, and a major GC must collect it.  The engine-level
   counterpart of the heap's release tests, for a wheel event and for
   one due beyond the wheel. *)
let test_fired_thunk_released () =
  List.iter
    (fun delay ->
      let e = Engine.create ~seed:1L () in
      let weak = Weak.create 1 in
      let () =
        let captured = ref delay in
        Weak.set weak 0 (Some captured);
        Engine.schedule e ~delay (fun () -> incr captured)
      in
      Engine.schedule e ~delay:(delay + 1) (fun () -> ());
      Alcotest.(check bool) "fired" true (Engine.step e);
      Gc.full_major ();
      Alcotest.(check bool)
        (Printf.sprintf "captured data of a fired event (delay %d) was collected" delay)
        false (Weak.check weak 0);
      Alcotest.(check int) "the other event is still queued" 1 (Engine.pending e))
    [ 3; 1000 ]

let suite =
  [
    Alcotest.test_case "clock advances to event times" `Quick test_clock_advances;
    Alcotest.test_case "minimum delay of 1" `Quick test_min_delay_enforced;
    Alcotest.test_case "schedule_now same instant" `Quick test_schedule_now_runs_this_instant;
    Alcotest.test_case "FIFO within an instant" `Quick test_fifo_same_instant;
    Alcotest.test_case "run ~until stops early" `Quick test_until_stops_early;
    Alcotest.test_case "budget exhaustion raises" `Quick test_budget_exhausted;
    Alcotest.test_case "cascading events" `Quick test_cascading_events;
    Alcotest.test_case "step" `Quick test_step;
    Alcotest.test_case "metrics attached" `Quick test_metrics_attached;
    Alcotest.test_case "an event due at or past max_int is never queued" `Quick
      test_never_due_not_queued;
    Alcotest.test_case "every: idle probes tick once and stop" `Quick test_every_idle_probes;
    Alcotest.test_case "every: a probe leaves other events in place" `Quick
      test_every_leaves_events_in_place;
    QCheck_alcotest.to_alcotest qcheck_queue_matches_reference;
    Alcotest.test_case "fired thunk released" `Quick test_fired_thunk_released;
  ]
