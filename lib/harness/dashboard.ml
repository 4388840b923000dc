module Series = Sbft_sim.Series
module Store = Sbft_kv.Store

(* Plain-text live view of a running store: one sparkline row per
   shard (abort rate per closed window), a fleet rollup row, the
   stabilization verdicts and the active alerts.  Pure rendering over
   the streaming structures — building a frame reads state and draws no
   randomness, so watching a run never changes it. *)

type t = { store : Store.t; stabilization : Stabilization.t option; alerts : Alerts.t option }

(* Sparkline width, in closed windows. *)
let windows = 32

let create ?stabilization ?alerts store = { store; stabilization; alerts }

(* ASCII ramp, low to high; index 0 is reserved for "no data". *)
let ramp = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#'; '@' |]

let glyph ~lo ~hi v =
  if hi <= lo then ramp.(1)
  else
    let t = (v -. lo) /. (hi -. lo) in
    let t = Float.max 0.0 (Float.min 1.0 t) in
    ramp.(1 + int_of_float (t *. float_of_int (Array.length ramp - 2) +. 0.5))

let sparkline ?(lo = 0.0) ?hi ~value windows =
  let vals = List.map (fun (_, a) -> if Series.Agg.is_empty a then None else Some (value a)) windows in
  let hi =
    match hi with
    | Some h -> h
    | None ->
        List.fold_left (fun acc v -> match v with Some x -> Float.max acc x | None -> acc) lo vals
  in
  String.init (List.length vals) (fun i ->
      match List.nth vals i with None -> ramp.(0) | Some v -> glyph ~lo ~hi v)

let abort_rate (a : Series.Agg.t) = Series.Agg.mean a

let render t =
  let buf = Buffer.create 1024 in
  let shards = Store.shard_count t.store in
  let n = windows in
  let all = Store.all_series t.store in
  let stab_cell shard =
    match t.stabilization with
    | None -> ""
    | Some st -> (
        match Stabilization.shard_state st shard with
        | Series.Detector.Pending -> "pending"
        | Series.Detector.Stabilized at -> (
            match Stabilization.time_to_stabilize st shard with
            | Some tts -> Printf.sprintf "stable@%d tts=%d" at tts
            | None -> Printf.sprintf "stable@%d" at))
  in
  Buffer.add_string buf
    (Printf.sprintf "%5s %8s %8s %6s  %-*s %s\n" "shard" "ops" "aborts" "p99" n "abort-rate"
       "stabilization");
  if all = [] then Buffer.add_string buf "  (series disabled: create the store with series_window)\n"
  else begin
    List.iteri
      (fun shard (s : Store.shard_series) ->
        let flow = Series.recent s.Store.flow ~n () in
        let total = Series.total s.Store.flow in
        let lat = Series.total s.Store.lat in
        let spark = sparkline ~lo:0.0 ~hi:1.0 ~value:abort_rate flow in
        Buffer.add_string buf
          (Printf.sprintf "%5d %8d %8.0f %6.0f  %-*s %s\n" shard
             total.Series.Agg.count total.Series.Agg.sum
             (Series.Agg.quantile lat 99.0)
             n spark (stab_cell shard)))
      all;
    (* Fleet rollup: the associative window merge in action. *)
    let flows = List.map (fun (s : Store.shard_series) -> s.Store.flow) all in
    let merged = Series.merge_recent ~n flows in
    let fleet_ops =
      List.fold_left (fun acc (s : Store.shard_series) -> acc + (Series.total s.Store.flow).Series.Agg.count) 0 all
    in
    let fleet_aborts =
      List.fold_left (fun acc (s : Store.shard_series) -> acc +. (Series.total s.Store.flow).Series.Agg.sum) 0.0 all
    in
    let fleet_stab =
      match t.stabilization with
      | None -> ""
      | Some st -> (
          match Stabilization.fleet_time_to_stabilize st with
          | Some tts -> Printf.sprintf "fleet tts=%d (%d/%d stable)" tts
                          (Stabilization.stabilized_shards st) shards
          | None ->
              Printf.sprintf "fleet pending (%d/%d stable)"
                (Stabilization.stabilized_shards st) shards)
    in
    Buffer.add_string buf
      (Printf.sprintf "%5s %8d %8.0f %6s  %-*s %s\n" "fleet" fleet_ops fleet_aborts "-" n
         (sparkline ~lo:0.0 ~hi:1.0 ~value:abort_rate merged)
         fleet_stab)
  end;
  (match t.alerts with
  | None -> ()
  | Some al ->
      let act = Alerts.active al in
      if act = [] then
        Buffer.add_string buf (Printf.sprintf "alerts: %d fired, none active\n" (Alerts.fired al))
      else begin
        Buffer.add_string buf
          (Printf.sprintf "alerts: %d fired, %d active\n" (Alerts.fired al) (List.length act));
        List.iter
          (fun (f : Alerts.firing) ->
            Buffer.add_string buf
              (Printf.sprintf "  ! shard %d %s: %s (window %d)\n" f.Alerts.shard f.Alerts.rule
                 f.Alerts.detail f.Alerts.window_index))
          act
      end);
  Buffer.contents buf
