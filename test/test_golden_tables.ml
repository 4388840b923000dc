(* Golden experiment tables: the full rows of the core-register tables
   (E2, E4, E5, E6, E9, E10, E14, E15, E17, E20) and a digest of E5's
   convergence curves, pinned.  Whatever path a table takes to build,
   fault, drive and audit its runs, it must print these rows byte for
   byte; a deliberate change to the simulation regenerates them. *)

module Experiments = Sbft_harness.Experiments
module Table = Sbft_harness.Table

let e2 =
  [
    [ "n=6 f=1"; "97"; "36.6"; "68.0"; "203"; "29.2"; "35.0"; "27.3" ];
    [ "n=11 f=2"; "84"; "38.7"; "68.0"; "216"; "30.6"; "36.0"; "49.6" ];
    [ "n=16 f=3"; "89"; "41.0"; "73.0"; "211"; "31.9"; "37.0"; "72.2" ];
    [ "n=21 f=4"; "88"; "40.4"; "73.0"; "212"; "32.3"; "37.0"; "93.1" ];
  ]

let e4 =
  [
    [ "silent"; "171"; "9"; "0"; "0" ];
    [ "mute-phase1"; "177"; "9"; "0"; "0" ];
    [ "mute-phase2"; "181"; "9"; "0"; "0" ];
    [ "nack-all"; "178"; "9"; "0"; "0" ];
    [ "stale-replay"; "180"; "9"; "0"; "0" ];
    [ "garbage"; "173"; "9"; "0"; "0" ];
    [ "equivocate"; "169"; "9"; "0"; "0" ];
    [ "inflate-ts"; "165"; "9"; "0"; "0" ];
    [ "mute-readers"; "176"; "9"; "0"; "0" ];
  ]

let e5 =
  [
    [ "none"; "0"; "0"; "43.0"; "47"; "0" ];
    [ "servers light"; "7"; "0"; "38.0"; "47"; "0" ];
    [ "servers heavy"; "7"; "0"; "43.0"; "51"; "0" ];
    [ "channels 30%"; "0"; "0"; "37.0"; "40"; "0" ];
    [ "everything"; "7"; "0"; "37.0"; "41"; "0" ];
  ]

let e6 =
  [
    [ "k-SBLS label, k=n=6"; "42" ];
    [ "k-SBLS label, k=n=11"; "84" ];
    [ "k-SBLS label, k=n=16"; "153" ];
    [ "k-SBLS label, k=n=21"; "198" ];
    [ "ours after 180 writes (label bits)"; "42.0" ];
    [ "kanjani after 180 writes (int bits)"; "7.0" ];
    [ "kanjani after 180 writes, poisoned ts (int bits)"; "29.0" ];
  ]

let e9 =
  [
    [ "n=4 (5f-1)"; "VIOLATION"; "3"; "79"; "0" ];
    [ "n=5 (5f+0)"; "VIOLATION"; "0"; "0"; "0" ];
    [ "n=6 (5f+1)"; "ok"; "0"; "0"; "0" ];
    [ "n=7 (5f+2)"; "ok"; "0"; "0"; "0" ];
    [ "n=8 (5f+3)"; "ok"; "0"; "0"; "0" ];
  ]

let e10 =
  [
    [ "skew=1x depth=6"; "18"; "0"; "0.0%"; "0" ];
    [ "skew=20x depth=6"; "18"; "2"; "11.1%"; "0" ];
    [ "skew=60x depth=6"; "18"; "6"; "33.3%"; "0" ];
    [ "skew=120x depth=6"; "18"; "3"; "16.7%"; "0" ];
    [ "skew=120x depth=40"; "18"; "0"; "0.0%"; "0" ];
  ]

let e14 =
  [
    [ "forwarding=on  pool=3"; "18"; "6"; "33.3%"; "30.4"; "0" ];
    [ "forwarding=off pool=3"; "18"; "7"; "38.9%"; "29.0"; "0" ];
    [ "forwarding=on  pool=2"; "18"; "6"; "33.3%"; "30.4"; "0" ];
    [ "forwarding=on  pool=8"; "18"; "6"; "33.3%"; "30.4"; "0" ];
  ]

let e15 =
  [
    [ "uniform 1..2"; "8.2"; "15.0"; "7.1"; "8.0"; "0"; "0" ];
    [ "uniform 1..10"; "35.7"; "67.0"; "29.2"; "35.0"; "0"; "0" ];
    [ "uniform 1..50"; "190.8"; "423.0"; "138.5"; "165.0"; "0"; "0" ];
    [ "bimodal 3/60 @10%"; "68.0"; "142.0"; "47.5"; "90.0"; "0"; "0" ];
    [ "two servers 16x slow"; "244.7"; "600.0"; "190.9"; "257.0"; "0"; "0" ];
  ]

let e17 =
  [
    [ "direct FIFO (reference)"; "72"; "28.3"; "26.0"; "701"; "0"; "0" ];
    [ "datalink, loss=0.0"; "72"; "109.4"; "86.4"; "11826"; "0"; "0" ];
    [ "datalink, loss=0.2"; "72"; "136.5"; "139.6"; "14444"; "0"; "0" ];
    [ "datalink, loss=0.4"; "72"; "252.3"; "224.5"; "21543"; "0"; "0" ];
  ]

let e20 =
  [
    [ "no partition"; "29.8"; "58"; "25.9"; "33"; "0"; "0" ];
    [ "3/3 cut for 200 ticks"; "45.4"; "228"; "37.0"; "221"; "0"; "0" ];
    [ "3/3 cut for 600 ticks"; "77.4"; "628"; "60.6"; "621"; "0"; "0" ];
    [ "3/3 cut for 1500 ticks"; "149.4"; "1528"; "113.5"; "1521"; "0"; "0" ];
  ]

let telemetry_digest = "b6ba49bf872bdb82b61088aaede3370d"

(* Each table is reached the way [sbftreg experiment ID] reaches it. *)
let rows id expected =
  Alcotest.test_case (id ^ " rows") `Quick (fun () ->
      match Experiments.by_id id with
      | None -> Alcotest.failf "%s is not a registered experiment" id
      | Some table -> Alcotest.(check (list (list string))) id expected (table ()).Table.rows)

let test_telemetry_digest () =
  let json = Sbft_sim.Json.to_string (Experiments.stabilization_telemetry ()) in
  Alcotest.(check string) "E5 telemetry JSON" telemetry_digest (Digest.to_hex (Digest.string json))

let suite =
  [
    rows "E2" e2;
    rows "E4" e4;
    rows "E5" e5;
    rows "E6" e6;
    rows "E9" e9;
    rows "E10" e10;
    rows "E14" e14;
    rows "E15" e15;
    rows "E17" e17;
    rows "E20" e20;
    Alcotest.test_case "E5 telemetry digest" `Quick test_telemetry_digest;
  ]
