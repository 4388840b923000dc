module J = Sbft_sim.Json
module Engine = Sbft_sim.Engine
module Trace = Sbft_sim.Trace
module Event = Sbft_sim.Event
module System = Sbft_core.System
module Server = Sbft_core.Server
module History = Sbft_spec.History
module Mw_ts = Sbft_labels.Mw_ts
module Sbls = Sbft_labels.Sbls

type snapshot = { time : int; distinct_labels : int; occupancy : float }

type t = {
  sys : System.t;
  snapshot_every : int;  (** <= 0: disabled *)
  window : int;
  mutable snaps : snapshot list;  (** newest first *)
}

let take_snapshot t =
  let engine = System.engine t.sys in
  let prof = Engine.profile engine in
  Sbft_sim.Profile.enter prof Sbft_sim.Profile.Telemetry;
  let time = Engine.now engine in
  let tr = Engine.trace engine in
  let m = (System.label_system t.sys).m in
  let n = (System.config t.sys).Sbft_core.Config.n in
  let stings = Hashtbl.create 8 in
  for id = 0 to n - 1 do
    let srv = System.server t.sys id in
    let ts = Server.ts srv in
    let sting = ts.Mw_ts.label.Sbls.sting in
    Hashtbl.replace stings sting ();
    if Trace.admits tr ~span:Event.no_span then
      Trace.emit tr ~time
        (Event.Server_state
           {
             server = id;
             value = Server.value srv;
             ts = Mw_ts.to_string ts;
             sting;
             hist_len = List.length (Server.old_vals srv);
             readers = List.length (Server.running_readers srv);
           })
  done;
  let d = Hashtbl.length stings in
  let occupancy = float_of_int d /. float_of_int m in
  t.snaps <- { time; distinct_labels = d; occupancy } :: t.snaps;
  Sbft_sim.Profile.leave prof

let attach ?(snapshot_every = 50) ?window sys =
  let window =
    match window with
    | Some w -> max 1 w
    | None -> if snapshot_every > 0 then snapshot_every else 50
  in
  let t = { sys; snapshot_every; window; snaps = [] } in
  if snapshot_every > 0 then
    Engine.every (System.engine sys) ~period:snapshot_every (fun () -> take_snapshot t);
  t

let snapshots t = List.rev t.snaps

(* ------------------------------------------------------------------ *)
(* windowed series *)

let fdiv a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let to_json t ~history ?(stale_reads = []) () =
  let w = t.window in
  let snaps = snapshots t in
  let ops = History.ops history in
  let resp_times =
    List.filter_map
      (function
        | History.Write { resp; _ } | History.Read { resp; _ } -> resp)
      ops
  in
  let horizon =
    List.fold_left max 0 (resp_times @ List.map (fun s -> s.time) snaps)
  in
  let nwin = (horizon / w) + 1 in
  let reads = Array.make nwin 0
  and aborts = Array.make nwin 0
  and writes = Array.make nwin 0
  and stale = Array.make nwin 0 in
  let bucket time = min (nwin - 1) (time / w) in
  let stale_resp op_id =
    List.find_map
      (function
        | History.Read { id; resp; _ } when id = op_id -> resp
        | _ -> None)
      ops
  in
  List.iter
    (function
      | History.Write { resp = Some r; _ } -> writes.(bucket r) <- writes.(bucket r) + 1
      | History.Read { resp = Some r; outcome; _ } -> (
          match outcome with
          | History.Value _ -> reads.(bucket r) <- reads.(bucket r) + 1
          | History.Abort -> aborts.(bucket r) <- aborts.(bucket r) + 1
          | History.Incomplete -> ())
      | _ -> ())
    ops;
  List.iter
    (fun id ->
      match stale_resp id with
      | Some r -> stale.(bucket r) <- stale.(bucket r) + 1
      | None -> ())
    stale_reads;
  let abort_rate = Array.init nwin (fun i -> fdiv aborts.(i) (reads.(i) + aborts.(i))) in
  (* occupancy resampled per window: last snapshot at or before the
     window's end, carried forward over empty windows *)
  let occupancy = Array.make nwin 0.0 in
  let rec fill i last = function
    | [] ->
        if i < nwin then begin
          occupancy.(i) <- last;
          fill (i + 1) last []
        end
    | s :: rest when s.time <= ((i + 1) * w) - 1 -> fill i s.occupancy rest
    | rest ->
        occupancy.(i) <- last;
        if i + 1 < nwin then fill (i + 1) last rest
  in
  (match snaps with [] -> () | s :: _ -> fill 0 s.occupancy snaps);
  let total a = Array.fold_left ( + ) 0 a in
  let peak a = Array.fold_left Float.max 0.0 a in
  let ints a = J.List (Array.to_list (Array.map (fun v -> J.Int v) a)) in
  let floats a = J.List (Array.to_list (Array.map (fun v -> J.Float v) a)) in
  let final_occ = match t.snaps with [] -> 0.0 | s :: _ -> s.occupancy in
  J.Obj
    [
      ("snapshot_every", J.Int t.snapshot_every);
      ("window", J.Int w);
      ( "snapshots",
        J.List
          (List.map
             (fun s ->
               J.Obj
                 [
                   ("t", J.Int s.time);
                   ("distinct_labels", J.Int s.distinct_labels);
                   ("occupancy", J.Float s.occupancy);
                 ])
             snaps) );
      ( "series",
        J.Obj
          [
            ("t", J.List (List.init nwin (fun i -> J.Int (i * w))));
            ("reads", ints reads);
            ("aborts", ints aborts);
            ("abort_rate", floats abort_rate);
            ("writes", ints writes);
            ("stale_reads", ints stale);
            ("label_occupancy", floats occupancy);
          ] );
      ( "summary",
        J.Obj
          [
            ("windows", J.Int nwin);
            ("snapshots", J.Int (List.length snaps));
            ("total_reads", J.Int (total reads));
            ("total_aborts", J.Int (total aborts));
            ("total_writes", J.Int (total writes));
            ("stale_reads", J.Int (total stale));
            ("abort_rate", J.Float (fdiv (total aborts) (total reads + total aborts)));
            ("peak_abort_rate", J.Float (peak abort_rate));
            ("peak_occupancy", J.Float (peak occupancy));
            ("final_occupancy", J.Float final_occ);
          ] );
    ]
