module History = Sbft_spec.History
module Regularity = Sbft_spec.Regularity
module Regularity_oracle = Sbft_spec.Regularity_oracle
module Rng = Sbft_sim.Rng

(* A valid steady-state audit workload: sequential completed writes,
   each observed by [reads_per_write] completed reads of its value
   before the next write begins.  No violations, monotone timestamps —
   the shape the harness checks after every honest run, which is the
   hot path worth tracking.  O(n_ops) to build. *)
let synthetic_history ~seed ~n_ops ~reads_per_write =
  let rng = Rng.create seed in
  let h = History.create () in
  let t = ref 10 in
  let nw = max 1 (n_ops / (reads_per_write + 1)) in
  for i = 1 to nw do
    let inv = !t + 1 + Rng.int rng 3 in
    let resp = inv + 2 + Rng.int rng 5 in
    let id = History.begin_write h ~client:0 ~value:i ~time:inv in
    History.end_write h ~id ~time:resp ~ts:(Some i);
    t := resp;
    for r = 1 to reads_per_write do
      let rinv = !t + Rng.int rng 3 in
      let rresp = rinv + 1 + Rng.int rng 4 in
      let rid = History.begin_read h ~client:(1 + (r mod 4)) ~time:rinv in
      History.end_read h ~id:rid ~time:rresp ~outcome:(History.Value i);
      t := max !t rresp
    done
  done;
  h

type budget = Cap of float | Floor of float

type row = { name : string; budget : budget; samples : float array }

let rounds = 7

let round_s = 0.3

(* Round [i] of two arms: they run one after the other, one run at a
   time, for [round_s] seconds; arm [a] goes first in even rounds and
   [b] in odd ones.  Each run returns the work it did; the result is
   each arm's work per second. *)
let round i a b =
  let work = [| 0; 0 |] and secs = [| 0.0; 0.0 |] in
  let time arm run =
    let t0 = Clock.now_ns () in
    work.(arm) <- work.(arm) + run ();
    secs.(arm) <- secs.(arm) +. Clock.elapsed_s t0
  in
  let t0 = Clock.now_ns () in
  let rec pairs () =
    if i land 1 = 0 then (time 0 a; time 1 b) else (time 1 b; time 0 a);
    if Clock.elapsed_s t0 < round_s then pairs ()
  in
  pairs ();
  (float_of_int work.(0) /. secs.(0), float_of_int work.(1) /. secs.(1))

(* Percent slower per unit of work than [base]. *)
let overhead ~name ~base arm =
  let sample i =
    let b, a = round i base arm in
    100.0 *. (1.0 -. (a /. b))
  in
  { name; budget = Cap 5.0; samples = Array.init rounds sample }

(* Every kv arm runs on the same 8-shard store at seed 17, tracing off;
   the series arm attaches the per-shard series and the online
   detector. *)
let kv_store ~with_series =
  let store =
    Sbft_kv.Store.create ~seed:17L ~trace_level:Sbft_sim.Trace.Off
      ?series_window:(if with_series then Some 50 else None)
      ~shards:8 ~n:6 ~f:1 ~clients:8 ()
  in
  if with_series then ignore (Stabilization.attach ~window:50 ~after:0 store);
  store

let kv_ops = 8 * 15

let fired store = Sbft_sim.Engine.events_fired (Sbft_kv.Store.engine store)

(* The closed loop: 15 ops per client over 32 keys; the run's fired
   thunks. *)
let closed ~with_series () =
  let store = kv_store ~with_series in
  let out =
    Workload.run_kv
      ~spec:{ Workload.default_kv with Workload.kv_ops_per_client = 15; Workload.keys = 32 }
      store
  in
  if out.Workload.issued_puts + out.Workload.issued_gets <> kv_ops then
    failwith "bench: closed loop did not issue every op";
  fired store

(* The open loop completes the same ops at a constant rate safely under
   capacity.  Both drivers schedule one pacing thunk per op of their own
   (think-time wakeups on the closed side, arrival slots on the open
   side), so the loadgen row counts fired thunks net of them: at equal
   per-event protocol cost any gap is the generator's admission queues,
   accounting and histogram records. *)
let open_loop () =
  let store = kv_store ~with_series:false in
  let spec =
    {
      Loadgen.default with
      Loadgen.mode = Loadgen.Open_loop (Loadgen.Const 0.25);
      duration = 10 * kv_ops;
      ops = Some kv_ops;
      keys = 32;
      max_queue = 4 * kv_ops;
    }
  in
  let o = Loadgen.run ~spec store in
  if o.Loadgen.completed <> kv_ops then
    failwith "bench: open loop did not complete every offered op";
  fired store - kv_ops

(* Histories checked per second by the sweep over the retired scan.
   The floor is 0.7x the median of five [sbftreg bench] runs on a 2-vCPU
   host (30.8x), a 30% margin for how the two checkers' costs shift
   between hosts. *)
let sweep_vs_scan () =
  let h = synthetic_history ~seed:21L ~n_ops:1_000 ~reads_per_write:9 in
  let prec : int -> int -> bool = ( < ) in
  if Regularity.check ~ts_prec:prec h <> Regularity_oracle.check ~ts_prec:prec h then
    failwith "bench: sweep and oracle reports diverge";
  let sweep () = ignore (Regularity.check ~ts_prec:prec h); 1 in
  let scan () = ignore (Regularity_oracle.check ~ts_prec:prec h); 1 in
  let sample i =
    let fast, slow = round i sweep scan in
    fast /. slow
  in
  { name = "sweep vs scan"; budget = Floor 21.6; samples = Array.init rounds sample }

let run () =
  [
    overhead ~name:"series on vs off" ~base:(closed ~with_series:false) (closed ~with_series:true);
    overhead ~name:"open vs closed loop"
      ~base:(fun () -> closed ~with_series:false () - kv_ops)
      open_loop;
    sweep_vs_scan ();
  ]

let quartiles r =
  let p = Stats.percentile r.samples in
  (p 25.0, p 50.0, p 75.0)

let over_budget r =
  let q1, _, q3 = quartiles r in
  match r.budget with Cap c -> q1 > c | Floor f -> q3 < f

let pp_row fmt r =
  let q1, med, q3 = quartiles r in
  let unit_, budget =
    match r.budget with
    | Cap c -> ("%", Printf.sprintf "q1 <= %g%%" c)
    | Floor f -> ("x", Printf.sprintf "q3 >= %gx" f)
  in
  Format.fprintf fmt "%-20s median %.2f%s [%.2f, %.2f]  %s  %s" r.name med unit_ q1 q3 budget
    (if over_budget r then "OVER" else "ok")
