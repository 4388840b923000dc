(* Network partition tests: a partition is an unbounded-delay window on
   reliable channels — operations stall across the cut and complete
   after healing; the spec holds throughout. *)

open Sbft_core
module H = Sbft_spec.History
module Network = Sbft_channel.Network
module FP = Sbft_byz.Fault_plan

let test_partition_parks_and_heals () =
  let e = Sbft_sim.Engine.create ~seed:1L () in
  let net = Network.create e ~endpoints:4 ~delay:(Sbft_channel.Delay.fixed 2) () in
  let seen = ref [] in
  Network.register net 2 (fun ~dst:_ ~src:_ m -> seen := m :: !seen);
  Network.partition net ~groups:[ [ 0; 1 ]; [ 2; 3 ] ];
  Alcotest.(check bool) "cross-cut" true (Network.partitioned net ~src:0 ~dst:2);
  Alcotest.(check bool) "same side" false (Network.partitioned net ~src:0 ~dst:1);
  Network.send net ~src:0 ~dst:2 "a";
  Network.send net ~src:0 ~dst:2 "b";
  Sbft_sim.Engine.run e;
  Alcotest.(check int) "parked, not delivered" 2 (Network.parked net);
  Alcotest.(check (list string)) "nothing through the cut" [] !seen;
  Network.heal net;
  Sbft_sim.Engine.run e;
  Alcotest.(check (list string)) "released in FIFO order" [ "a"; "b" ] (List.rev !seen);
  Alcotest.(check int) "queue drained" 0 (Network.parked net)

let test_unlisted_endpoints_isolated () =
  let e = Sbft_sim.Engine.create ~seed:2L () in
  let net = Network.create e ~endpoints:4 ~delay:(Sbft_channel.Delay.fixed 2) () in
  Network.partition net ~groups:[ [ 0; 1 ] ];
  Alcotest.(check bool) "unlisted pair isolated from each other" true
    (Network.partitioned net ~src:2 ~dst:3);
  Alcotest.(check bool) "unlisted isolated from listed" true (Network.partitioned net ~src:2 ~dst:0)

let test_ops_stall_then_complete () =
  List.iter
    (fun seed ->
      let sys = System.create ~seed (Config.make ~n:6 ~f:1 ~clients:2 ()) in
      System.write sys ~client:6 ~value:1 ();
      System.quiesce sys;
      (* Cut the reader off from all but two servers: below quorum. *)
      let reader = 7 in
      Network.partition (System.network sys)
        ~groups:[ [ 0; 1; reader ]; [ 2; 3; 4; 5; 6 ] ];
      let got = ref H.Incomplete in
      System.read sys ~client:reader ~k:(fun o -> got := o) ();
      System.quiesce sys;
      Alcotest.(check bool)
        (Printf.sprintf "read stalls across the cut (seed %Ld)" seed)
        true (!got = H.Incomplete);
      (* Heal: the read completes with the correct value. *)
      Network.heal (System.network sys);
      System.quiesce sys;
      Alcotest.(check bool)
        (Printf.sprintf "read completes after heal (seed %Ld)" seed)
        true (!got = H.Value 1))
    [ 3L; 4L ]

let test_majority_side_keeps_working () =
  let sys = System.create ~seed:5L (Config.make ~n:6 ~f:1 ~clients:3 ()) in
  System.write sys ~client:6 ~value:1 ();
  System.quiesce sys;
  (* Client 8 and one server are cut off; clients 6 and 7 retain all
     six... no — servers 0..5 stay together, client 8 alone. *)
  Network.partition (System.network sys) ~groups:[ [ 0; 1; 2; 3; 4; 5; 6; 7 ]; [ 8 ] ];
  let ok = ref H.Incomplete and stalled = ref H.Incomplete in
  System.write sys ~client:6 ~value:2 ~k:(fun () -> System.read sys ~client:7 ~k:(fun o -> ok := o) ()) ();
  System.read sys ~client:8 ~k:(fun o -> stalled := o) ();
  System.quiesce sys;
  Alcotest.(check bool) "connected side unaffected" true (!ok = H.Value 2);
  Alcotest.(check bool) "isolated client stalls" true (!stalled = H.Incomplete);
  Network.heal (System.network sys);
  System.quiesce sys;
  Alcotest.(check bool) "isolated client completes after heal" true (!stalled = H.Value 2)

let test_regularity_across_partition_episode () =
  List.iter
    (fun seed ->
      let sys = System.create ~seed (Config.make ~n:6 ~f:1 ~clients:3 ()) in
      FP.apply sys
        [
          (150, FP.Partition [ [ 0; 1; 2; 6 ]; [ 3; 4; 5; 7; 8 ] ]);
          (400, FP.Heal_partition);
        ];
      let reg = Sbft_harness.Register.core sys in
      let o =
        Sbft_harness.Workload.run ~spec:{ Sbft_harness.Workload.default with ops_per_client = 15 } reg
      in
      Alcotest.(check bool) "no livelock across the episode" false o.livelocked;
      let after = Option.value ~default:max_int (reg.first_write_completion ()) in
      Alcotest.(check int)
        (Printf.sprintf "regular across partition (seed %Ld)" seed)
        0
        (reg.check_regular ~after ()).violations)
    [ 7L; 8L; 9L ]

let suite =
  [
    Alcotest.test_case "parks and heals FIFO" `Quick test_partition_parks_and_heals;
    Alcotest.test_case "unlisted endpoints isolated" `Quick test_unlisted_endpoints_isolated;
    Alcotest.test_case "ops stall then complete" `Quick test_ops_stall_then_complete;
    Alcotest.test_case "majority side keeps working" `Quick test_majority_side_keeps_working;
    Alcotest.test_case "regularity across the episode" `Quick test_regularity_across_partition_episode;
  ]
