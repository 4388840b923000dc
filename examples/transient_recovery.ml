(* Transient-fault recovery — pseudo-stabilization, step by step.

   Run with:  dune exec examples/transient_recovery.exe

   This example makes the paper's central property visible: start the
   whole system in an adversarially corrupted configuration (servers'
   values, timestamps, histories, clients' label matrices, and garbage
   already in flight on the channels), then watch:

     phase 1: reads before any write may abort or disagree — the
              register has nothing trustworthy to serve;
     phase 2: ONE completed write scrubs a quorum;
     phase 3: from then on every read returns valid values, forever.

   Compare with the Kanjani et al. baseline (unbounded integer
   timestamps) under the same correlated corruption: it never recovers,
   because max+1 arithmetic cannot jump over a poisoned maximal
   timestamp, while next() on bounded labels dominates ANY input by
   construction. *)

let phase name = Printf.printf "\n--- %s ---\n" name

let outcome_str = function
  | Sbft_spec.History.Value v -> Printf.sprintf "%d" v
  | Sbft_spec.History.Abort -> "ABORT"
  | Sbft_spec.History.Incomplete -> "?"

let () =
  let open Sbft_core in
  let cfg = Config.make ~n:6 ~f:1 ~clients:3 () in
  let sys = System.create ~seed:31L cfg in

  phase "phase 0: corrupt everything at t=0";
  System.corrupt_everything sys ~severity:`Heavy;
  List.iter
    (fun (id, v, ts) ->
      Printf.printf "  server %d holds value=%-8d ts=%s\n" id v (Sbft_labels.Mw_ts.to_string ts))
    (System.server_states sys);

  phase "phase 1: reads against corrupted state (no write yet)";
  for client = 6 to 8 do
    System.read sys ~client
      ~k:(fun o -> Printf.printf "  client %d read -> %s\n" client (outcome_str o))
      ()
  done;
  System.quiesce sys;

  phase "phase 2: one write scrubs a quorum";
  System.write sys ~client:6 ~value:7777
    ~k:(fun () ->
      Printf.printf "  write(7777) complete; servers now:\n";
      List.iter
        (fun (id, v, ts) ->
          Printf.printf "  server %d holds value=%-8d ts=%s\n" id v (Sbft_labels.Mw_ts.to_string ts))
        (System.server_states sys))
    ();
  System.quiesce sys;

  phase "phase 3: reads are valid from now on";
  for client = 6 to 8 do
    System.read sys ~client
      ~k:(fun o -> Printf.printf "  client %d read -> %s\n" client (outcome_str o))
      ()
  done;
  System.quiesce sys;

  phase "baseline contrast: Kanjani et al. (3f+1, unbounded timestamps), poisoned";
  let module B = Sbft_baselines.Baseline in
  let k = B.create ~seed:31L B.Kanjani ~n:4 ~f:1 ~clients:2 () in
  B.poison k ~ids:[ 0; 1 ];
  let read_after_write label =
    B.write k ~client:4 ~value:8888
      ~k:(fun () ->
        B.read k ~client:5
          ~k:(fun o -> Printf.printf "  %s: wrote 8888, read -> %s\n" label (outcome_str o))
          ())
      ()
  in
  read_after_write "after write #1";
  B.quiesce k;
  Printf.printf "  (the poisoned max-int timestamp wins every read, and max+1 overflows: stuck forever)\n"
