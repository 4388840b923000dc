(* Property tests for the regularity checker itself: randomly generated
   valid histories must pass (no false positives, even with reads
   racing writes), and targeted mutations must be flagged (no false
   negatives on the staleness class the checker promises to catch). *)

module H = Sbft_spec.History
module Reg = Sbft_spec.Regularity

let prec = ( < )

type wrec = { value : int; inv : int; resp : int }

(* A random valid history: sequential writes, reads placed anywhere,
   each read returning a legal value (the last write completed before
   its invocation, or any write overlapping it). *)
let generate rng_seed n_writes n_reads =
  let rng = Sbft_sim.Rng.create (Int64.of_int rng_seed) in
  let h = H.create () in
  let writes = ref [] in
  let t = ref 10 in
  for i = 1 to n_writes do
    let inv = !t + Sbft_sim.Rng.int_in rng 1 10 in
    let resp = inv + Sbft_sim.Rng.int_in rng 5 25 in
    t := resp;
    let id = H.begin_write h ~client:0 ~value:i ~time:inv in
    H.end_write h ~id ~time:resp ~ts:(Some i);
    writes := { value = i; inv; resp } :: !writes
  done;
  let writes = List.rev !writes in
  let horizon = !t + 20 in
  let reads = ref [] in
  for _ = 1 to n_reads do
    let inv = Sbft_sim.Rng.int_in rng 11 horizon in
    let resp = inv + Sbft_sim.Rng.int_in rng 1 15 in
    let last_completed =
      List.fold_left (fun acc w -> if w.resp < inv then Some w else acc) None writes
    in
    let overlapping = List.filter (fun w -> w.inv <= resp && w.resp >= inv) writes in
    let legal =
      (match last_completed with Some w -> [ w.value ] | None -> []) @ List.map (fun w -> w.value) overlapping
    in
    match legal with
    | [] -> () (* read before any write: skip, unconstrained *)
    | _ ->
        let v = List.nth legal (Sbft_sim.Rng.int rng (List.length legal)) in
        let id = H.begin_read h ~client:1 ~time:inv in
        H.end_read h ~id ~time:resp ~outcome:(H.Value v);
        reads := (id, inv, resp) :: !reads
  done;
  (h, writes, List.rev !reads)

let qcheck_valid_histories_pass =
  QCheck.Test.make ~name:"regularity: random valid histories are never flagged" ~count:300
    QCheck.(triple (int_bound 100_000) (int_range 1 12) (int_range 1 15))
    (fun (seed, nw, nr) ->
      let h, _, _ = generate seed nw nr in
      (Reg.check ~ts_prec:prec h).violations = [])

let qcheck_stale_mutants_flagged =
  QCheck.Test.make ~name:"regularity: planting a strictly stale return is always flagged" ~count:300
    QCheck.(pair (int_bound 100_000) (int_range 3 12))
    (fun (seed, nw) ->
      let h, writes, _ = generate seed nw 0 in
      (* A read strictly after every write, returning the first write:
         strictly stale by construction (nw >= 3 writes exist). *)
      let last = List.fold_left (fun acc w -> max acc w.resp) 0 writes in
      let id = H.begin_read h ~client:2 ~time:(last + 5) in
      H.end_read h ~id ~time:(last + 10) ~outcome:(H.Value 1);
      let r = Reg.check ~ts_prec:prec h in
      List.exists (fun (v : Reg.violation) -> v.kind = `Stale && v.read_id = id) r.violations)

let qcheck_future_mutants_flagged =
  QCheck.Test.make ~name:"regularity: returning a future value is always flagged" ~count:300
    QCheck.(pair (int_bound 100_000) (int_range 2 12))
    (fun (seed, nw) ->
      let h, writes, _ = generate seed nw 0 in
      let first = List.hd writes in
      (* A read strictly before the LAST write begins, returning that
         last write's value. *)
      let last_w = List.nth writes (List.length writes - 1) in
      if first.resp + 1 >= last_w.inv - 1 then true (* no room; vacuous *)
      else begin
        let id = H.begin_read h ~client:2 ~time:(first.resp + 1) in
        H.end_read h ~id ~time:(min (first.resp + 2) (last_w.inv - 1)) ~outcome:(H.Value last_w.value);
        let r = Reg.check ~ts_prec:prec h in
        List.exists (fun (v : Reg.violation) -> v.kind = `Future && v.read_id = id) r.violations
      end)

let qcheck_unwritten_mutants_flagged =
  QCheck.Test.make ~name:"regularity: unwritten values are always flagged" ~count:200
    QCheck.(pair (int_bound 100_000) (int_range 1 8))
    (fun (seed, nw) ->
      let h, writes, _ = generate seed nw 0 in
      let last = List.fold_left (fun acc w -> max acc w.resp) 0 writes in
      let id = H.begin_read h ~client:2 ~time:(last + 1) in
      H.end_read h ~id ~time:(last + 5) ~outcome:(H.Value 424242);
      let r = Reg.check ~ts_prec:prec h in
      List.exists (fun (v : Reg.violation) -> v.kind = `Unwritten) r.violations)

let qcheck_inversion_mutants_flagged =
  QCheck.Test.make ~name:"regularity: read-pair inversions are always flagged" ~count:200
    QCheck.(pair (int_bound 100_000) (int_range 3 10))
    (fun (seed, nw) ->
      let h, writes, _ = generate seed nw 0 in
      let last = List.fold_left (fun acc w -> max acc w.resp) 0 writes in
      let newest = List.nth writes (List.length writes - 1) in
      (* r1 returns the newest value; r2 (after r1) returns the first. *)
      let id1 = H.begin_read h ~client:2 ~time:(last + 1) in
      H.end_read h ~id:id1 ~time:(last + 5) ~outcome:(H.Value newest.value);
      let id2 = H.begin_read h ~client:2 ~time:(last + 10) in
      H.end_read h ~id:id2 ~time:(last + 15) ~outcome:(H.Value 1);
      let r = Reg.check ~ts_prec:prec h in
      r.Reg.violations <> [])

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_valid_histories_pass;
    QCheck_alcotest.to_alcotest qcheck_stale_mutants_flagged;
    QCheck_alcotest.to_alcotest qcheck_future_mutants_flagged;
    QCheck_alcotest.to_alcotest qcheck_unwritten_mutants_flagged;
    QCheck_alcotest.to_alcotest qcheck_inversion_mutants_flagged;
  ]
