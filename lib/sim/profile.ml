(* Integer nanoseconds: an [int64] would be boxed at every clock read
   and every total update, and the profiler would count itself in the
   words per op it helps to measure. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

type phase = Delivery | Server_step | Client_step | Checker | Telemetry | Other

let phase_index = function
  | Delivery -> 0
  | Server_step -> 1
  | Client_step -> 2
  | Checker -> 3
  | Telemetry -> 4
  | Other -> 5

let phase_count = 6

let phase_label = function
  | Delivery -> "delivery"
  | Server_step -> "server_step"
  | Client_step -> "client_step"
  | Checker -> "checker"
  | Telemetry -> "telemetry"
  | Other -> "other"

let phases = [ Delivery; Server_step; Client_step; Checker; Telemetry; Other ]

(* A flat self-time profiler: [enter p] pushes a phase, [leave]
   pops it, and every transition charges the elapsed wall time to the
   phase that was running.  Nested phases therefore report *self*
   time — a server step that spends half its time inside
   [Network.send] shows that half under [delivery], not twice.  Time
   outside any phase is charged to [Other].  All state is
   preallocated: enabling the profiler adds two monotonic-clock reads
   per transition and zero allocation to the hot path; disabled it is
   one branch. *)

let max_depth = 64

type t = {
  mutable enabled : bool;
  totals_ns : int array;  (* self nanoseconds per phase *)
  counts : int array;  (* enter count per phase *)
  stack : int array;  (* phase indices; depth 0 = Other *)
  mutable depth : int;
  mutable last_ns : int;
  mutable started_ns : int;
  event_counts : int array;  (* per Event constructor, via trace sink *)
}

let create () =
  {
    enabled = false;
    totals_ns = Array.make phase_count 0;
    counts = Array.make phase_count 0;
    stack = Array.make max_depth (phase_index Other);
    depth = 0;
    last_ns = 0;
    started_ns = 0;
    event_counts = Array.make (Array.length Event.kinds) 0;
  }

let enabled t = t.enabled

let reset t =
  Array.fill t.totals_ns 0 phase_count 0;
  Array.fill t.counts 0 phase_count 0;
  Array.fill t.event_counts 0 (Array.length t.event_counts) 0;
  t.depth <- 0;
  let now = now_ns () in
  t.last_ns <- now;
  t.started_ns <- now

let enable t =
  reset t;
  t.enabled <- true

let current t = if t.depth = 0 then phase_index Other else t.stack.(t.depth - 1)

let charge t now =
  let i = current t in
  t.totals_ns.(i) <- t.totals_ns.(i) + (now - t.last_ns);
  t.last_ns <- now

let enter t phase =
  if t.enabled then begin
    let now = now_ns () in
    charge t now;
    let i = phase_index phase in
    t.counts.(i) <- t.counts.(i) + 1;
    if t.depth < max_depth then begin
      t.stack.(t.depth) <- i;
      t.depth <- t.depth + 1
    end
  end

let leave t =
  if t.enabled then begin
    charge t (now_ns ());
    if t.depth > 0 then t.depth <- t.depth - 1
  end

let with_phase t phase f =
  if t.enabled then begin
    enter t phase;
    Fun.protect ~finally:(fun () -> leave t) f
  end
  else f ()

let count_event t ev =
  let i = Event.index ev in
  t.event_counts.(i) <- t.event_counts.(i) + 1

let event_sink t : Trace.sink = fun ~time:_ ev -> count_event t ev

(* ------------------------------------------------------------------ *)
(* reports *)

type report = {
  wall_s : float;
  phase_rows : (string * int * float) list;  (* label, enters, self seconds *)
  event_rows : (string * int) list;  (* kind, count; descending, top-K *)
  events_total : int;
}

let report ?(top = 8) t =
  (* settle the open phase so self-times add up to now *)
  if t.enabled then charge t (now_ns ());
  let wall_s = float_of_int (t.last_ns - t.started_ns) *. 1e-9 in
  let phase_rows =
    List.map
      (fun p ->
        let i = phase_index p in
        (phase_label p, t.counts.(i), float_of_int t.totals_ns.(i) *. 1e-9))
      phases
  in
  let event_rows =
    Array.to_list (Array.mapi (fun i c -> (Event.kinds.(i), c)) t.event_counts)
    |> List.filter (fun (_, c) -> c > 0)
    |> List.sort (fun (_, a) (_, b) -> compare b a)
    |> fun rows -> List.filteri (fun i _ -> i < top) rows
  in
  let events_total = Array.fold_left ( + ) 0 t.event_counts in
  { wall_s; phase_rows; event_rows; events_total }

let to_json r =
  Json.Obj
    [
      ("wall_s", Json.Float r.wall_s);
      ( "phases",
        Json.Obj
          (List.map
             (fun (label, count, self_s) ->
               (label, Json.Obj [ ("count", Json.Int count); ("self_s", Json.Float self_s) ]))
             r.phase_rows) );
      ( "top_events",
        Json.Obj (List.map (fun (kind, count) -> (kind, Json.Int count)) r.event_rows) );
      ("events_total", Json.Int r.events_total);
    ]

let pp fmt r =
  let attributed = List.fold_left (fun acc (_, _, s) -> acc +. s) 0.0 r.phase_rows in
  let pct s = if r.wall_s <= 0.0 then 0.0 else 100.0 *. s /. r.wall_s in
  Format.fprintf fmt "@[<v>profile: %.3fs wall, %.3fs attributed@," r.wall_s attributed;
  Format.fprintf fmt "  %-12s %10s %10s %6s@," "phase" "enters" "self ms" "%";
  List.iter
    (fun (label, count, self_s) ->
      Format.fprintf fmt "  %-12s %10d %10.2f %5.1f%%@," label count (self_s *. 1e3) (pct self_s))
    r.phase_rows;
  if r.event_rows <> [] then begin
    Format.fprintf fmt "  top event kinds (%d total):@," r.events_total;
    List.iter
      (fun (kind, count) -> Format.fprintf fmt "    %-16s %10d@," kind count)
      r.event_rows
  end;
  Format.fprintf fmt "@]"
