(* Determinism and structural-invariant properties: the repository's
   "reproducible from (seed, config)" claim, property-tested. *)

open Sbft_labels

let test_experiment_tables_deterministic () =
  (* The headline claim of EXPERIMENTS.md: rerunning an experiment
     yields byte-identical rows. *)
  List.iter
    (fun id ->
      match Sbft_harness.Experiments.by_id id with
      | Some f ->
          let a = f () and b = f () in
          Alcotest.(check bool) (id ^ " deterministic") true (a.rows = b.rows)
      | None -> Alcotest.fail ("missing " ^ id))
    [ "e1"; "e3"; "e11" ]

let qcheck_workload_deterministic =
  QCheck.Test.make ~name:"system: identical seeds give identical histories" ~count:25
    QCheck.(int_bound 100_000)
    (fun seed ->
      let run () =
        let sys =
          Sbft_core.System.create ~seed:(Int64.of_int seed)
            (Sbft_core.Config.make ~n:6 ~f:1 ~clients:3 ())
        in
        let reg = Sbft_harness.Register.core sys in
        let _ =
          Sbft_harness.Workload.run
            ~spec:{ Sbft_harness.Workload.default with ops_per_client = 8 }
            reg
        in
        Format.asprintf "%a"
          (Sbft_spec.History.pp Sbft_labels.Mw_ts.pp)
          (Sbft_core.System.history sys)
      in
      run () = run ())

let qcheck_heap_multiset =
  QCheck.Test.make ~name:"heap: drain returns exactly what was pushed" ~count:300
    QCheck.(small_list (pair (int_bound 50) small_int))
    (fun items ->
      let h = Sbft_sim.Heap.create () in
      List.iteri (fun seq (t, payload) -> Sbft_sim.Heap.push h ~time:t ~seq payload) items;
      let rec drain acc =
        if Sbft_sim.Heap.min_time h = Sbft_sim.Heap.no_event then acc
        else drain (Sbft_sim.Heap.take h :: acc)
      in
      let out = drain [] in
      List.sort compare out = List.sort compare (List.map snd items))

let qcheck_datalink_clean_fifo =
  QCheck.Test.make ~name:"datalink: exact FIFO on clean channels, any burst" ~count:40
    QCheck.(pair (int_bound 100_000) (int_range 1 30))
    (fun (seed, count) ->
      let engine = Sbft_sim.Engine.create ~seed:(Int64.of_int seed) () in
      let seen = ref [] in
      let dl =
        Sbft_channel.Datalink.create engine ~capacity:4 ~loss:0.0 ~max_delay:5
          ~deliver:(fun p -> seen := p :: !seen)
          ()
      in
      for i = 1 to count do
        Sbft_channel.Datalink.send dl i
      done;
      Sbft_sim.Engine.run ~max_events:500_000 engine;
      List.rev !seen = List.init count (fun i -> i + 1))

let qcheck_wtsg_best_iff_threshold =
  QCheck.Test.make ~name:"wtsg: best is Some iff a node reaches the threshold" ~count:300
    QCheck.(pair (int_bound 100_000) (int_range 1 5))
    (fun (seed, threshold) ->
      let sys = Sbls.system ~k:4 in
      let rng = Sbft_sim.Rng.create (Int64.of_int seed) in
      let witnesses =
        List.init
          (Sbft_sim.Rng.int_in rng 0 12)
          (fun _ ->
            {
              Wtsg.server = Sbft_sim.Rng.int rng 6;
              value = Sbft_sim.Rng.int rng 3;
              ts = Mw_ts.random sys rng ~clients:3;
              rank = Sbft_sim.Rng.int rng 3;
            })
      in
      let g = Wtsg.build witnesses in
      let has_heavy = List.exists (fun (n : Wtsg.node) -> n.weight >= threshold) (Wtsg.nodes g) in
      (Wtsg.best g ~min_weight:threshold <> None) = has_heavy)

let qcheck_wtsg_best_qualifies =
  QCheck.Test.make ~name:"wtsg: the chosen node itself meets the threshold" ~count:300
    QCheck.(int_bound 100_000)
    (fun seed ->
      let sys = Sbls.system ~k:4 in
      let rng = Sbft_sim.Rng.create (Int64.of_int seed) in
      let witnesses =
        List.init 10 (fun _ ->
            {
              Wtsg.server = Sbft_sim.Rng.int rng 5;
              value = Sbft_sim.Rng.int rng 3;
              ts = Mw_ts.random sys rng ~clients:3;
              rank = 0;
            })
      in
      let g = Wtsg.build witnesses in
      match Wtsg.best g ~min_weight:2 with Some n -> n.weight >= 2 | None -> true)

let qcheck_canonicalize_idempotent =
  QCheck.Test.make ~name:"sbls: canonicalize is idempotent" ~count:500
    QCheck.(int_bound 100_000)
    (fun seed ->
      let sys = Sbls.system ~k:5 in
      let rng = Sbft_sim.Rng.create (Int64.of_int seed) in
      let g = Sbls.random_garbage sys rng in
      let c = Sbls.canonicalize sys g in
      Sbls.equal c (Sbls.canonicalize sys c))

let qcheck_cyclic_next_best_effort =
  QCheck.Test.make ~name:"cyclic: next dominates whenever domination is possible (singleton)"
    ~count:500
    QCheck.(int_bound 100_000)
    (fun seed ->
      let sys = Sbft_labels.Cyclic.system ~m:16 in
      let rng = Sbft_sim.Rng.create (Int64.of_int seed) in
      let l = Sbft_labels.Cyclic.random sys rng in
      let n = Sbft_labels.Cyclic.next sys [ l ] in
      Sbft_labels.Cyclic.prec sys l n)

let suite =
  [
    Alcotest.test_case "experiment tables deterministic" `Slow test_experiment_tables_deterministic;
    QCheck_alcotest.to_alcotest qcheck_workload_deterministic;
    QCheck_alcotest.to_alcotest qcheck_heap_multiset;
    QCheck_alcotest.to_alcotest qcheck_datalink_clean_fifo;
    QCheck_alcotest.to_alcotest qcheck_wtsg_best_iff_threshold;
    QCheck_alcotest.to_alcotest qcheck_wtsg_best_qualifies;
    QCheck_alcotest.to_alcotest qcheck_canonicalize_idempotent;
    QCheck_alcotest.to_alcotest qcheck_cyclic_next_best_effort;
  ]
