module Engine = Sbft_sim.Engine
module Rng = Sbft_sim.Rng
module Metrics = Sbft_sim.Metrics
module Names = Sbft_sim.Metric_names
module Series = Sbft_sim.Series
module Store = Sbft_kv.Store
module History = Sbft_spec.History
module J = Sbft_sim.Json

(* -- arrival processes ---------------------------------------------- *)

type arrival = Poisson of float | Const of float | Ramp of float * float

type mode = Open_loop of arrival

(* The batch-per-tick representation (one engine thunk per tick that
   has arrivals, carrying that tick's whole batch) keeps any rate up to
   [max_rate] exact.  Beyond it we refuse: the naive one-thunk-per-
   arrival design would hand [Engine.schedule] sub-tick delays, and the
   engine's [max 1 delay] floor would silently stretch the offered rate
   to one arrival per tick — the clamp this module exists to never hit. *)
let max_rate = 100_000.0

type error =
  | Invalid_rate of float
  | Rate_unrepresentable of { rate : float; max : float }
  | Invalid_duration of int
  | Invalid_mix of float
  | Invalid_queue_cap of int
  | Invalid_keys of int
  | Invalid_zipf of float
  | Invalid_arrival of string

exception Invalid of error

let error_to_string = function
  | Invalid_rate r -> Printf.sprintf "arrival rate must be a positive finite number (got %g)" r
  | Rate_unrepresentable { rate; max } ->
      Printf.sprintf
        "arrival rate %g ops/tick exceeds what the virtual clock can represent (max %g); \
         lower the rate or rescale a tick"
        rate max
  | Invalid_duration d -> Printf.sprintf "duration must be at least one tick (got %d)" d
  | Invalid_mix w -> Printf.sprintf "write ratio must lie in [0, 1] (got %g)" w
  | Invalid_queue_cap q -> Printf.sprintf "max_queue must be at least 1 (got %d)" q
  | Invalid_keys k -> Printf.sprintf "key-space size must be at least 1 (got %d)" k
  | Invalid_zipf s ->
      Printf.sprintf "zipf_s must be a non-negative number (0 = uniform; got %g)" s
  | Invalid_arrival s ->
      Printf.sprintf
        "invalid arrival process %S (expected poisson:RATE, const:RATE or ramp:A..B)" s

let check_rate r =
  if Float.is_nan r || r <= 0.0 then raise (Invalid (Invalid_rate r));
  if r > max_rate then raise (Invalid (Rate_unrepresentable { rate = r; max = max_rate }))

let check_arrival = function
  | Poisson r | Const r -> check_rate r
  | Ramp (a, b) ->
      check_rate a;
      check_rate b

(* -- specification --------------------------------------------------- *)

type spec = {
  mode : mode;
  duration : int;  (* arrival-generation span, virtual ticks *)
  ops : int option;  (* optional cap on offered arrivals *)
  write_ratio : float;
  keys : int;
  zipf_s : float;
  value_base : int;
  max_queue : int;  (* per-shard admission-queue capacity *)
}

let default =
  {
    mode = Open_loop (Poisson 0.5);
    duration = 2_000;
    ops = None;
    write_ratio = 0.3;
    keys = 64;
    zipf_s = 1.1;
    value_base = 2_000;
    max_queue = 1_024;
  }

let validate spec =
  try
    if spec.duration < 1 then raise (Invalid (Invalid_duration spec.duration));
    if Float.is_nan spec.write_ratio || spec.write_ratio < 0.0 || spec.write_ratio > 1.0 then
      raise (Invalid (Invalid_mix spec.write_ratio));
    if spec.keys < 1 then raise (Invalid (Invalid_keys spec.keys));
    if Float.is_nan spec.zipf_s || spec.zipf_s < 0.0 then
      raise (Invalid (Invalid_zipf spec.zipf_s));
    if spec.max_queue < 1 then raise (Invalid (Invalid_queue_cap spec.max_queue));
    let (Open_loop a) = spec.mode in
    check_arrival a;
    Ok ()
  with Invalid e -> Error e

(* -- deterministic arrival schedule ---------------------------------- *)

type slot = { at : int; batch : int }

(* Continuous arrival times accumulate as floats; each is charged to
   the integer tick that ends the interval containing it, so every slot
   lands at a strictly positive offset and consecutive slots are
   strictly increasing — the two facts that keep [Engine.schedule]'s
   delay floor out of play. *)
let schedule ?ops ~rng ~duration arrival =
  check_arrival arrival;
  if duration < 1 then raise (Invalid (Invalid_duration duration));
  let cap = match ops with Some n -> max 0 n | None -> max_int in
  (* A flat ramp is a constant rate.  The arithmetic already agrees
     bitwise — [(b -. a) *. frac] is exactly [0.0] when [a = b], so the
     gap is [1.0 /. a] either way — but normalizing here makes the
     equivalence structural rather than a property of float rounding,
     and drops the per-arrival frac computation for the degenerate
     spelling. *)
  let arrival = match arrival with Ramp (a, b) when a = b -> Const a | a -> a in
  let gap tau =
    match arrival with
    | Const r -> 1.0 /. r
    | Poisson r -> -.log (1.0 -. Rng.float rng) /. r
    | Ramp (a, b) ->
        let frac = Float.min 1.0 (tau /. float_of_int duration) in
        1.0 /. (a +. ((b -. a) *. frac))
  in
  let slots = ref [] in
  let flush at batch = if batch > 0 then slots := { at; batch } :: !slots in
  let tau = ref 0.0 and count = ref 0 in
  let cur_at = ref 0 and cur_batch = ref 0 in
  let finished = ref false in
  while not !finished do
    tau := !tau +. gap !tau;
    if !tau >= float_of_int duration || !count >= cap then finished := true
    else begin
      incr count;
      let at = int_of_float !tau + 1 in
      if at = !cur_at then incr cur_batch
      else begin
        flush !cur_at !cur_batch;
        cur_at := at;
        cur_batch := 1
      end
    end
  done;
  flush !cur_at !cur_batch;
  List.rev !slots

(* -- accounting ------------------------------------------------------ *)

type shard_counts = {
  s_offered : int;
  s_accepted : int;
  s_rejected : int;
  s_completed : int;
  s_aborted : int;
  s_peak_queue : int;
}

type outcome = {
  offered : int;
  accepted : int;
  rejected : int;
  completed : int;
  completed_puts : int;
  completed_gets : int;
  aborted : int;  (* gets answering [Abort]; still count as completed *)
  incomplete : int;
  peak_queue : int;
  peak_inflight : int;
  gen_ticks : int;
  wall_ticks : int;
  livelocked : bool;
  per_shard : shard_counts array;
  queue_series : Series.t array;  (* [||] when the store's series are off *)
}

let shard_counts_json (c : shard_counts) shard =
  J.Obj
    [
      ("shard", J.Int shard);
      ("offered", J.Int c.s_offered);
      ("accepted", J.Int c.s_accepted);
      ("rejected", J.Int c.s_rejected);
      ("completed", J.Int c.s_completed);
      ("aborted", J.Int c.s_aborted);
      ("peak_queue", J.Int c.s_peak_queue);
    ]

let arrival_to_string = function
  | Poisson r -> Printf.sprintf "poisson:%g" r
  | Const r -> Printf.sprintf "const:%g" r
  | Ramp (a, b) -> Printf.sprintf "ramp:%g..%g" a b

(* The inverse of [arrival_to_string].  Only the syntax is checked
   here; rates are range-checked by [validate]. *)
let arrival_of_string s =
  let split sep s =
    let n = String.length sep in
    let rec at i =
      if i + n > String.length s then None
      else if String.sub s i n = sep then
        Some (String.sub s 0 i, String.sub s (i + n) (String.length s - i - n))
      else at (i + 1)
    in
    at 0
  in
  let rate = float_of_string_opt in
  (* the ramp's bounds are floats, so split them on "..", not on a dot *)
  let parsed =
    match split ":" s with
    | Some ("poisson", r) -> Option.map (fun r -> Poisson r) (rate r)
    | Some ("const", r) -> Option.map (fun r -> Const r) (rate r)
    | Some ("ramp", r) -> (
        match Option.map (fun (a, b) -> (rate a, rate b)) (split ".." r) with
        | Some (Some a, Some b) -> Some (Ramp (a, b))
        | _ -> None)
    | _ -> None
  in
  Option.to_result ~none:(Invalid_arrival s) parsed

let to_json ~spec (o : outcome) =
  let (Open_loop a) = spec.mode in
  J.Obj
    [
      ("mode", J.Obj [ ("kind", J.String "open"); ("arrival", J.String (arrival_to_string a)) ]);
      ("duration", J.Int spec.duration);
      ("write_ratio", J.Float spec.write_ratio);
      ("max_queue", J.Int spec.max_queue);
      ("offered", J.Int o.offered);
      ("accepted", J.Int o.accepted);
      ("rejected", J.Int o.rejected);
      ("completed", J.Int o.completed);
      ("completed_puts", J.Int o.completed_puts);
      ("completed_gets", J.Int o.completed_gets);
      ("aborted", J.Int o.aborted);
      ("incomplete", J.Int o.incomplete);
      ("peak_queue", J.Int o.peak_queue);
      ("peak_inflight", J.Int o.peak_inflight);
      ("gen_ticks", J.Int o.gen_ticks);
      ("wall_ticks", J.Int o.wall_ticks);
      ("livelocked", J.Bool o.livelocked);
      ("per_shard", J.List (Array.to_list (Array.mapi (fun i c -> shard_counts_json c i) o.per_shard)));
    ]

let pp fmt (o : outcome) =
  Format.fprintf fmt
    "@[<v>loadgen: offered=%d accepted=%d rejected=%d completed=%d aborted=%d peak_queue=%d@,"
    o.offered o.accepted o.rejected o.completed o.aborted o.peak_queue;
  Format.fprintf fmt "  %5s %9s %9s %9s %9s %8s %7s@," "shard" "offered" "accepted" "rejected"
    "completed" "aborted" "peak_q";
  Array.iteri
    (fun shard c ->
      Format.fprintf fmt "  %5d %9d %9d %9d %9d %8d %7d@," shard c.s_offered c.s_accepted
        c.s_rejected c.s_completed c.s_aborted c.s_peak_queue)
    o.per_shard;
  Format.fprintf fmt "@]"

(* -- the generator ---------------------------------------------------- *)

let run ?(max_events = 200_000_000) ~spec store =
  (match validate spec with Ok () -> () | Error e -> raise (Invalid e));
  let engine = Store.engine store in
  let m = Engine.metrics engine in
  let rng = Rng.split (Engine.rng engine) in
  let start = Engine.now engine in
  let shards = Store.shard_count store in
  let nclients = Store.client_count store in
  (* validate already vetted keys and zipf_s; no clamp needed here *)
  let cdf = Workload.zipf_cdf ~keys:spec.keys ~s:spec.zipf_s in
  let key_names = Array.init spec.keys (fun r -> Printf.sprintf "key-%d" r) in
  let next_value = ref spec.value_base in
  (* fleet accounting *)
  let offered = ref 0 and accepted = ref 0 and rejected = ref 0 in
  let completed = ref 0 and completed_puts = ref 0 and completed_gets = ref 0 in
  let aborted = ref 0 and incomplete = ref 0 in
  let peak_queue = ref 0 and peak_inflight = ref 0 and inflight = ref 0 in
  (* per-shard accounting *)
  let ps_offered = Array.make shards 0
  and ps_accepted = Array.make shards 0
  and ps_rejected = Array.make shards 0
  and ps_completed = Array.make shards 0
  and ps_aborted = Array.make shards 0
  and ps_peak_queue = Array.make shards 0 in
  (* admission queues: (is_put, key, shard, enqueued-at) *)
  let queues : (bool * string * int * int) Queue.t array =
    Array.init shards (fun _ -> Queue.create ())
  in
  let total_queued = ref 0 in
  (* queue-depth series ride the store's streaming config: same window,
     on only when the store's own per-shard series are on *)
  let queue_series =
    match Store.series_window store with
    | None -> [||]
    | Some w ->
        Array.init shards (fun shard ->
            Series.create ~window:w ~name:(Names.kv_shard ~shard Names.Shard_queue) ())
  in
  let observe_queue shard =
    if Array.length queue_series > 0 then
      Series.observe queue_series.(shard)
        ~time:(Engine.now engine)
        (float_of_int (Queue.length queues.(shard)))
  in
  (* Hot-path histogram handles, resolved lazily so a histogram exists
     exactly when it has a sample (as the string-keyed API behaves) but
     the per-operation path never hashes a metric name. *)
  let e2e_h =
    Array.init shards (fun shard -> lazy (Metrics.hist m (Names.kv_shard ~shard Names.Shard_e2e_ticks)))
  in
  let qwait_h = lazy (Metrics.hist m Names.loadgen_queue_wait_ticks) in
  (* free-client pool: one in-flight op per store client, so hot
     Zipfian keys can never collide two ops from the same endpoint on
     the same key register (the client automaton forbids it) *)
  let free = Array.init nclients (fun i -> i) in
  let free_top = ref nclients in
  let pop_free () =
    decr free_top;
    free.(!free_top)
  in
  let push_free c =
    free.(!free_top) <- c;
    incr free_top
  in
  let complete ~shard ~enq_at outcome_k =
    incr completed;
    ps_completed.(shard) <- ps_completed.(shard) + 1;
    (match outcome_k with
    | `Put -> incr completed_puts
    | `Get -> incr completed_gets
    | `Abort ->
        incr completed_gets;
        incr aborted;
        ps_aborted.(shard) <- ps_aborted.(shard) + 1);
    let e2e = Engine.now engine - enq_at in
    Metrics.hist_record (Lazy.force e2e_h.(shard)) (float_of_int e2e)
  in
  let issue ~client ~shard ~is_put ~key ~enq_at ~after =
    let wait = Engine.now engine - enq_at in
    Metrics.hist_record (Lazy.force qwait_h) (float_of_int wait);
    incr inflight;
    if !inflight > !peak_inflight then peak_inflight := !inflight;
    let finish kind =
      decr inflight;
      complete ~shard ~enq_at kind;
      after ()
    in
    if is_put then begin
      let value = !next_value in
      incr next_value;
      Store.put store ~client ~key ~value ~k:(fun () -> finish `Put) ()
    end
    else
      Store.get store ~client ~key
        ~k:(fun outcome ->
          match outcome with
          | History.Value _ -> finish `Get
          | History.Abort -> finish `Abort
          | History.Incomplete ->
              decr inflight;
              incr incomplete;
              after ())
        ()
  in
  let (Open_loop arrival) = spec.mode in
  let slots = schedule ?ops:spec.ops ~rng ~duration:spec.duration arrival in
  let gen_ticks = List.fold_left (fun _ s -> s.at) 0 slots in
  let cursor = ref 0 in
  let rec drain () =
    if !free_top > 0 && !total_queued > 0 then begin
      let rec find i =
        let s = (!cursor + i) mod shards in
        if Queue.is_empty queues.(s) then find (i + 1) else s
      in
      let shard = find 0 in
      cursor := (shard + 1) mod shards;
      let is_put, key, shard', enq_at = Queue.pop queues.(shard) in
      assert (shard' = shard);
      decr total_queued;
      observe_queue shard;
      let client = pop_free () in
      issue ~client ~shard ~is_put ~key ~enq_at ~after:(fun () ->
          push_free client;
          drain ());
      drain ()
    end
  in
  let arrive () =
    incr offered;
    let key = key_names.(Workload.zipf_pick rng cdf) in
    let is_put = Rng.chance rng spec.write_ratio in
    let shard = Store.shard_of_key store key in
    ps_offered.(shard) <- ps_offered.(shard) + 1;
    if Queue.length queues.(shard) >= spec.max_queue then begin
      incr rejected;
      ps_rejected.(shard) <- ps_rejected.(shard) + 1
    end
    else begin
      incr accepted;
      ps_accepted.(shard) <- ps_accepted.(shard) + 1;
      Queue.push (is_put, key, shard, Engine.now engine) queues.(shard);
      incr total_queued;
      let depth = Queue.length queues.(shard) in
      if depth > ps_peak_queue.(shard) then ps_peak_queue.(shard) <- depth;
      if !total_queued > !peak_queue then peak_queue := !total_queued;
      observe_queue shard;
      drain ()
    end
  in
  let rec arm prev = function
    | [] -> ()
    | { at; batch } :: rest ->
        Engine.schedule engine ~delay:(at - prev) (fun () ->
            for _ = 1 to batch do
              arrive ()
            done;
            arm at rest)
  in
  arm 0 slots;
  let livelocked =
    try
      Store.quiesce ~max_events store;
      false
    with Engine.Budget_exhausted -> true
  in
  let now = Engine.now engine in
  Array.iter (fun s -> Series.roll_to s ~time:now) queue_series;
  (* The per-shard admission counters flush once per run — the engine
     metrics only ever carry run totals, so bumping them per arrival
     would buy nothing but a string hash on the hot path. *)
  for shard = 0 to shards - 1 do
    if ps_offered.(shard) > 0 then
      Metrics.add m (Names.kv_shard ~shard Names.Shard_offered) ps_offered.(shard);
    if ps_accepted.(shard) > 0 then
      Metrics.add m (Names.kv_shard ~shard Names.Shard_accepted) ps_accepted.(shard);
    if ps_rejected.(shard) > 0 then
      Metrics.add m (Names.kv_shard ~shard Names.Shard_rejected) ps_rejected.(shard)
  done;
  {
    offered = !offered;
    accepted = !accepted;
    rejected = !rejected;
    completed = !completed;
    completed_puts = !completed_puts;
    completed_gets = !completed_gets;
    aborted = !aborted;
    incomplete = !incomplete;
    peak_queue = !peak_queue;
    peak_inflight = !peak_inflight;
    gen_ticks;
    wall_ticks = now - start;
    livelocked;
    per_shard =
      Array.init shards (fun i ->
          {
            s_offered = ps_offered.(i);
            s_accepted = ps_accepted.(i);
            s_rejected = ps_rejected.(i);
            s_completed = ps_completed.(i);
            s_aborted = ps_aborted.(i);
            s_peak_queue = ps_peak_queue.(i);
          });
    queue_series;
  }
