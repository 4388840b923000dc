module Engine = Sbft_sim.Engine
module Event = Sbft_sim.Event
module Metrics = Sbft_sim.Metrics
module Names = Sbft_sim.Metric_names
module Series = Sbft_sim.Series
module Store = Sbft_kv.Store
module History = Sbft_spec.History
module J = Sbft_sim.Json

(* Pseudo-stabilization detection: one Series.Detector per shard plus
   one fleet-wide detector, all fed (completion time, dirty) pairs
   through [observe].  "Dirty" is an aborted read — the transitory-phase
   answer the paper's stabilization curve counts.  Three feeders share
   the bank: a live kv store, a recorded trace, and a single-register
   history.  Every feeder keys off op completions and the virtual clock,
   so the same run gives the same verdicts whichever feeder saw it, at
   every trace level and under replay. *)

type t = {
  window : int;
  k : int;
  after : int;
  per_shard : Series.Detector.t array;
  fleet : Series.Detector.t;
  metrics : Metrics.t option;  (* where [finalize] publishes the verdicts *)
  mutable finalized : bool;
}

let create ?(k = 3) ?metrics ~window ~after ~shards () =
  if window < 1 then invalid_arg "Stabilization: window must be positive";
  {
    window;
    k;
    after;
    per_shard = Array.init shards (fun _ -> Series.Detector.create ~k ~window ~after ());
    fleet = Series.Detector.create ~k ~window ~after ();
    metrics;
    finalized = false;
  }

(* The one core every feeder goes through.  The fleet detector sees
   every completion: a window is clean fleet-wide only when no shard
   aborted in it.  A completion with no known shard feeds the fleet
   alone. *)
let observe t ~shard ~time ~dirty =
  if shard >= 0 && shard < Array.length t.per_shard then
    Series.Detector.observe t.per_shard.(shard) ~time ~dirty;
  Series.Detector.observe t.fleet ~time ~dirty

let attach ?k ~window ~after store =
  let t =
    create ?k
      ~metrics:(Engine.metrics (Store.engine store))
      ~window ~after ~shards:(Store.shard_count store) ()
  in
  Store.add_observer store (fun ~shard ~time ~ok ~ticks:_ -> observe t ~shard ~time ~dirty:(not ok));
  t

(* An op's shard arrives on a separate Span_tag event, usually before
   its Op_finished; collect the span -> shard map first. *)
let of_events ~window ~after ~shards events =
  let t = create ~window ~after ~shards () in
  let shard_of_span = Hashtbl.create 256 in
  List.iter
    (function
      | _, Event.Span_tag { span; tag = "shard"; v } -> Hashtbl.replace shard_of_span span v
      | _ -> ())
    events;
  List.iter
    (function
      | time, Event.Op_finished { outcome; span; _ } when outcome <> "incomplete" ->
          let shard = Option.value ~default:(-1) (Hashtbl.find_opt shard_of_span span) in
          observe t ~shard ~time ~dirty:(outcome = "abort")
      | _ -> ())
    events;
  t

let of_history ~window ~after h =
  let t = create ~window ~after ~shards:1 () in
  List.filter_map
    (function
      | History.Write { resp = Some time; _ } -> Some (time, false)
      | History.Read { resp = Some time; outcome; _ } -> Some (time, outcome = History.Abort)
      | _ -> None)
    (History.ops h)
  |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.iter (fun (time, dirty) -> observe t ~shard:0 ~time ~dirty);
  t

let shard_state t i = Series.Detector.state t.per_shard.(i)

let time_to_stabilize t i = Series.Detector.time_to_stabilize t.per_shard.(i)

let fleet_time_to_stabilize t = Series.Detector.time_to_stabilize t.fleet

(* End of run: count the fully elapsed silence as clean windows, then
   publish a live bank's verdicts as first-class metrics so they flow
   into the artifact, the trends DB and the metric-trends gate. *)
let finalize t ~now =
  if not t.finalized then begin
    t.finalized <- true;
    Array.iter (fun det -> ignore (Series.Detector.finalize det ~now)) t.per_shard;
    ignore (Series.Detector.finalize t.fleet ~now);
    Option.iter
      (fun m ->
        Array.iteri
          (fun shard det ->
            match Series.Detector.time_to_stabilize det with
            | Some ticks ->
                Metrics.incr m Names.stab_shards_stabilized;
                let v = float_of_int ticks in
                Metrics.record m Names.stab_time_to_stabilize_ticks v;
                Metrics.record m (Names.stab_shard ~shard) v
            | None -> ())
          t.per_shard;
        match Series.Detector.time_to_stabilize t.fleet with
        | Some ticks ->
            Metrics.record m Names.stab_fleet_time_to_stabilize_ticks (float_of_int ticks)
        | None -> ())
      t.metrics
  end

let stabilized_shards t =
  Array.fold_left
    (fun acc det ->
      match Series.Detector.state det with
      | Series.Detector.Stabilized _ -> acc + 1
      | Series.Detector.Pending -> acc)
    0 t.per_shard

let to_json t =
  J.Obj
    [
      ("window", J.Int t.window);
      ("k", J.Int t.k);
      ("after", J.Int t.after);
      ("stabilized_shards", J.Int (stabilized_shards t));
      ("fleet", Series.Detector.to_json t.fleet);
      ( "shards",
        J.List
          (Array.to_list
             (Array.mapi
                (fun shard det ->
                  match Series.Detector.to_json det with
                  | J.Obj fields -> J.Obj (("shard", J.Int shard) :: fields)
                  | other -> other)
                t.per_shard)) );
    ]

let pp fmt t =
  let state_str det =
    match Series.Detector.state det with
    | Series.Detector.Pending -> "pending"
    | Series.Detector.Stabilized at -> Printf.sprintf "stable@%d" at
  in
  let tts det =
    match Series.Detector.time_to_stabilize det with
    | Some ticks -> string_of_int ticks
    | None -> "-"
  in
  Format.fprintf fmt "@[<v>stabilization: window=%d k=%d after=%d (%d/%d shards stable)@,"
    t.window t.k t.after (stabilized_shards t) (Array.length t.per_shard);
  Format.fprintf fmt "  %5s %12s %8s %6s@," "shard" "state" "t-t-s" "dirty";
  Array.iteri
    (fun shard det ->
      Format.fprintf fmt "  %5d %12s %8s %6d@," shard (state_str det) (tts det)
        (Series.Detector.dirty_windows det))
    t.per_shard;
  Format.fprintf fmt "  %5s %12s %8s %6d@]" "fleet" (state_str t.fleet) (tts t.fleet)
    (Series.Detector.dirty_windows t.fleet)
