module Engine = Sbft_sim.Engine

(* Live heartbeat for long runs.  The probe polls on the virtual clock
   (an [Engine.every] probe, like Telemetry) but *paces* on the
   monotonic wall clock: a heartbeat fires when enough real seconds
   have passed, not every N virtual ticks — virtual throughput varies
   by orders of magnitude across configurations, wall time is what a
   watching human (or a CI log) experiences.  The probe only reads
   state, draws no randomness and never touches handler scheduling, so
   attaching it cannot change a run's history or verdict. *)

type t = {
  engine : Engine.t;
  every_s : float;
  out : out_channel;
  render : unit -> string;
  started_ns : int64;
  mutable last_ns : int64;
  mutable beats : int;
}

let beat t =
  let elapsed = Clock.elapsed_s t.started_ns in
  Printf.fprintf t.out "[progress +%.1fs vt=%d fired=%d] %s\n%!" elapsed (Engine.now t.engine)
    (Engine.events_fired t.engine) (t.render ());
  t.beats <- t.beats + 1

let attach ?(every_s = 2.0) ?(poll_ticks = 1000) ?(out = stderr) engine render =
  let t =
    {
      engine;
      every_s = Float.max 0.0 every_s;
      out;
      render;
      started_ns = Clock.now_ns ();
      last_ns = Clock.now_ns ();
      beats = 0;
    }
  in
  Engine.every engine ~period:poll_ticks (fun () ->
      if Clock.elapsed_s t.last_ns >= t.every_s then begin
        t.last_ns <- Clock.now_ns ();
        beat t
      end);
  t

let finish t = beat t

let beats t = t.beats
