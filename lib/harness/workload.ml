module Engine = Sbft_sim.Engine
module Rng = Sbft_sim.Rng

type spec = { ops_per_client : int; write_ratio : float; think_max : int; value_base : int }

let default = { ops_per_client = 20; write_ratio = 0.3; think_max = 20; value_base = 1000 }

type outcome = { issued_writes : int; issued_reads : int; wall_ticks : int; livelocked : bool }

let run_mixed ?(spec = default) ?(max_events = 20_000_000) ~writers ~readers (reg : Register.t) =
  let engine = reg.engine in
  let rng = Rng.split (Engine.rng engine) in
  let next_value = ref spec.value_base in
  let issued_writes = ref 0 and issued_reads = ref 0 in
  let start = Engine.now engine in
  (* Every client in either role participates; a client in both roles
     mixes according to write_ratio. *)
  let module ISet = Set.Make (Int) in
  let wset = ISet.of_list writers and rset = ISet.of_list readers in
  let participants = ISet.elements (ISet.union wset rset) in
  let rec step client remaining =
    if remaining > 0 then begin
      let writes = ISet.mem client wset and reads = ISet.mem client rset in
      let do_write = writes && ((not reads) || Rng.chance rng spec.write_ratio) in
      let continue () =
        Engine.schedule engine ~delay:(Rng.int_in rng 1 (max 1 spec.think_max)) (fun () ->
            step client (remaining - 1))
      in
      if do_write then begin
        let value = !next_value in
        incr next_value;
        incr issued_writes;
        reg.write ~client ~value ~k:continue
      end
      else begin
        incr issued_reads;
        reg.read ~client ~k:(fun _ -> continue ())
      end
    end
  in
  List.iter
    (fun client ->
      Engine.schedule engine ~delay:(Rng.int_in rng 1 (max 1 spec.think_max)) (fun () ->
          step client spec.ops_per_client))
    participants;
  let livelocked =
    try
      reg.quiesce ~max_events;
      false
    with Engine.Budget_exhausted -> true
  in
  {
    issued_writes = !issued_writes;
    issued_reads = !issued_reads;
    wall_ticks = Engine.now engine - start;
    livelocked;
  }

let run ?spec ?max_events (reg : Register.t) =
  run_mixed ?spec ?max_events ~writers:reg.writer_clients ~readers:reg.reader_clients reg

(* -- kv store driver ------------------------------------------------ *)

module Store = Sbft_kv.Store

type kv_spec = {
  kv_ops_per_client : int;
  kv_write_ratio : float;
  kv_think_max : int;
  kv_value_base : int;
  keys : int;
  zipf_s : float;
}

let default_kv =
  {
    kv_ops_per_client = 50;
    kv_write_ratio = 0.3;
    kv_think_max = 20;
    kv_value_base = 1000;
    keys = 64;
    zipf_s = 1.1;
  }

type kv_outcome = {
  issued_puts : int;
  issued_gets : int;
  aborted_gets : int;
  kv_wall_ticks : int;
  kv_livelocked : bool;
}

(* Zipfian(s) over key ranks 0..keys-1: weight(r) = 1/(r+1)^s,
   precomputed as a normalized CDF sampled by binary search — the
   standard hot-key skew (rank 0 is the hottest key).  The boundaries
   are pinned, not left to float accident: [s = 0] degenerates to
   uniform (every weight is 1), [keys = 1] to the constant sampler
   (cdf = [|1.0|]).  [s < 0] would invert the skew — rank [keys-1]
   hottest, unbounded as keys grow — which no caller means by "zipf";
   it and NaN (which would poison the whole CDF and make the binary
   search silently return rank 0 forever) are rejected rather than
   clamped. *)
let zipf_cdf ~keys ~s =
  if keys < 1 then invalid_arg (Printf.sprintf "Workload.zipf_cdf: keys must be >= 1 (got %d)" keys);
  if Float.is_nan s || s < 0.0 then
    invalid_arg (Printf.sprintf "Workload.zipf_cdf: s must be a non-negative number (got %g)" s);
  let w = Array.init keys (fun r -> 1.0 /. Float.pow (float_of_int (r + 1)) s) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_pick rng cdf =
  let u = Rng.float rng in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

let run_kv ?(spec = default_kv) (store : Store.t) =
  let cdf = zipf_cdf ~keys:spec.keys ~s:spec.zipf_s in
  let engine = Store.engine store in
  let rng = Rng.split (Engine.rng engine) in
  let key_names = Array.init spec.keys (fun r -> Printf.sprintf "key-%d" r) in
  let next_value = ref spec.kv_value_base in
  let issued_puts = ref 0 and issued_gets = ref 0 and aborted_gets = ref 0 in
  let start = Engine.now engine in
  let clients = Store.client_count store in
  let rec step client remaining =
    if remaining > 0 then begin
      let key = key_names.(zipf_pick rng cdf) in
      let continue () =
        Engine.schedule engine
          ~delay:(Rng.int_in rng 1 (max 1 spec.kv_think_max))
          (fun () -> step client (remaining - 1))
      in
      if Rng.chance rng spec.kv_write_ratio then begin
        let value = !next_value in
        incr next_value;
        incr issued_puts;
        Store.put store ~client ~key ~value ~k:continue ()
      end
      else begin
        incr issued_gets;
        Store.get store ~client ~key
          ~k:(fun outcome ->
            (match outcome with
            | Sbft_spec.History.Abort -> incr aborted_gets
            | Sbft_spec.History.Value _ | Sbft_spec.History.Incomplete -> ());
            continue ())
          ()
      end
    end
  in
  for client = 0 to clients - 1 do
    Engine.schedule engine
      ~delay:(Rng.int_in rng 1 (max 1 spec.kv_think_max))
      (fun () -> step client spec.kv_ops_per_client)
  done;
  let kv_livelocked =
    try
      Store.quiesce ~max_events:50_000_000 store;
      false
    with Engine.Budget_exhausted -> true
  in
  {
    issued_puts = !issued_puts;
    issued_gets = !issued_gets;
    aborted_gets = !aborted_gets;
    kv_wall_ticks = Engine.now engine - start;
    kv_livelocked;
  }
