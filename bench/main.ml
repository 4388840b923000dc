(* Benchmark driver: the Bechamel micro-benchmarks for the hot
   primitives (E12).  The experiment tables are [sbftreg experiment
   ID|all], the within-run ratio gate is [sbftreg bench], and the
   workloads are bench/suite's.

   Usage: dune exec bench/main.exe *)

open Bechamel
open Toolkit

let sbls_k k =
  let sys = Sbft_labels.Sbls.system ~k in
  let rng = Sbft_sim.Rng.create 3L in
  let inputs = List.init k (fun _ -> Sbft_labels.Sbls.random sys rng) in
  Test.make
    ~name:(Printf.sprintf "sbls.next k=%d" k)
    (Staged.stage (fun () -> ignore (Sbft_labels.Sbls.next sys inputs)))

let wtsg_build n =
  let sys = Sbft_labels.Sbls.system ~k:n in
  let rng = Sbft_sim.Rng.create 5L in
  let witnesses =
    List.concat_map
      (fun server ->
        List.init 6 (fun rank ->
            {
              Sbft_labels.Wtsg.server;
              value = 100 + rank;
              ts = Sbft_labels.Mw_ts.random sys rng ~clients:4;
              rank;
            }))
      (List.init n (fun i -> i))
  in
  Test.make
    ~name:(Printf.sprintf "wtsg.build+best n=%d" n)
    (Staged.stage (fun () ->
         let g = Sbft_labels.Wtsg.build witnesses in
         ignore (Sbft_labels.Wtsg.best g ~min_weight:3)))

(* The decision over current replies, shaped like a kv read: all but one
   of [n] servers report the newest of two consecutive writes, added at
   rank 0 to the domain's table as the client adds them. *)
let wtsg_current n =
  let sys = Sbft_labels.Sbls.system ~k:n in
  let old_ts = Sbft_labels.Mw_ts.initial sys in
  let new_ts = Sbft_labels.Mw_ts.next sys ~writer:1 [ old_ts ] in
  Test.make
    ~name:(Printf.sprintf "wtsg.current n=%d" n)
    (Staged.stage (fun () ->
         let table = Sbft_labels.Wtsg.local ~servers:n in
         for server = 0 to n - 1 do
           Sbft_labels.Wtsg.add table ~server ~value:(if server = 0 then 1 else 2)
             ~ts:(if server = 0 then old_ts else new_ts)
             ~rank:0
         done;
         ignore (Sbft_labels.Wtsg.best table ~min_weight:3)))

let end_to_end n f =
  Test.make
    ~name:(Printf.sprintf "sim: system n=%d + write + read" n)
    (Staged.stage (fun () ->
         let cfg = Sbft_core.Config.make ~n ~f ~clients:2 () in
         let sys = Sbft_core.System.create ~seed:7L cfg in
         Sbft_core.System.write sys ~client:n ~value:1
           ~k:(fun () -> Sbft_core.System.read sys ~client:(n + 1) ())
           ();
         Sbft_core.System.quiesce sys))

let kv_roundtrip () =
  Test.make ~name:"kv: 4-shard store, put+get"
    (Staged.stage (fun () ->
         let kv = Sbft_kv.Store.create ~seed:7L ~shards:4 ~n:6 ~f:1 ~clients:2 () in
         Sbft_kv.Store.put kv ~client:0 ~key:"k" ~value:1
           ~k:(fun () -> Sbft_kv.Store.get kv ~client:1 ~key:"k" ())
           ();
         Sbft_kv.Store.quiesce kv))

let datalink_burst () =
  Test.make ~name:"datalink: 20 msgs over lossy channel"
    (Staged.stage (fun () ->
         let engine = Sbft_sim.Engine.create ~seed:5L () in
         let dl =
           Sbft_channel.Datalink.create engine ~capacity:4 ~loss:0.2 ~max_delay:4
             ~deliver:(fun (_ : int) -> ())
             ()
         in
         for i = 1 to 20 do
           Sbft_channel.Datalink.send dl i
         done;
         Sbft_sim.Engine.run engine))

let explorer_point () =
  Test.make ~name:"explorer: one audited schedule"
    (Staged.stage (fun () ->
         let cfg = Sbft_core.Config.make ~n:6 ~f:1 ~clients:3 () in
         let sys = Sbft_core.System.create ~seed:3L cfg in
         let reg = Sbft_harness.Register.core sys in
         let _ =
           Sbft_harness.Workload.run
             ~spec:{ Sbft_harness.Workload.default with ops_per_client = 8 }
             reg
         in
         ignore (reg.check_regular ~after:0 ())))

(* The engine's per-event queue cost at kv's queue depth: each run
   schedules one event and fires the earliest, so ~170 stay pending,
   due over the next 20 ticks like kv's network deliveries. *)
let engine_queue () =
  let e = Sbft_sim.Engine.create ~seed:1L () in
  let noop () = () in
  let d = ref 0 in
  let next_delay () =
    d := (!d + 7) mod 20;
    1 + !d
  in
  for _ = 1 to 170 do
    Sbft_sim.Engine.schedule e ~delay:(next_delay ()) noop
  done;
  Test.make ~name:"engine: schedule+fire, ~170 pending"
    (Staged.stage (fun () ->
         Sbft_sim.Engine.schedule e ~delay:(next_delay ()) noop;
         ignore (Sbft_sim.Engine.step e)))

let regularity_check () =
  (* A fixed mixed history, checked repeatedly. *)
  let cfg = Sbft_core.Config.make ~n:6 ~f:1 ~clients:4 () in
  let sys = Sbft_core.System.create ~seed:9L cfg in
  let reg = Sbft_harness.Register.core sys in
  let _ =
    Sbft_harness.Workload.run
      ~spec:{ Sbft_harness.Workload.default with ops_per_client = 25 }
      reg
  in
  Test.make ~name:"spec: regularity check (100-op history)"
    (Staged.stage (fun () -> ignore (reg.check_regular ~after:0 ())))

(* E12 rows as data: (name, ns/run estimate), sorted by name. *)
let micro_rows () =
  let tests =
    Test.make_grouped ~name:"sbft"
      [
        sbls_k 6;
        sbls_k 21;
        wtsg_build 6;
        wtsg_build 21;
        wtsg_current 6;
        end_to_end 6 1;
        end_to_end 11 2;
        engine_queue ();
        regularity_check ();
        kv_roundtrip ();
        datalink_burst ();
        explorer_point ();
      ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg instances tests in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name v ->
      let est = match Analyze.OLS.estimates v with Some [ e ] -> e | _ -> nan in
      rows := (name, est) :: !rows)
    results;
  List.sort compare !rows

let micro () =
  print_newline ();
  print_endline "== E12: micro-benchmarks (Bechamel, monotonic clock) ==";
  List.iter
    (fun (name, est) ->
      if Float.is_nan est then Printf.printf "%-42s (no estimate)\n" name
      else if est > 1_000_000.0 then Printf.printf "%-42s %10.2f ms/run\n" name (est /. 1_000_000.0)
      else if est > 1_000.0 then Printf.printf "%-42s %10.2f us/run\n" name (est /. 1_000.0)
      else Printf.printf "%-42s %10.0f ns/run\n" name est)
    (micro_rows ())

let () =
  if Array.length Sys.argv = 1 then micro ()
  else begin
    prerr_endline "usage: main.exe (no arguments); tables: sbftreg experiment ID|all";
    exit 1
  end
