(* Metamorphic tests for the regularity checker: the verdict must be
   invariant under transformations that provably preserve regularity —
   re-inserting the same operation records in any order (the checker
   orders by invocation/response times, never by record position) and
   removing a read (regularity is per-read, so deleting one cannot
   create a violation).  Dually, an injected stale read must stay
   flagged through the same transformations. *)

module H = Sbft_spec.History
module Reg = Sbft_spec.Regularity
module Rng = Sbft_sim.Rng

let prec = ( < )

type wrec = { value : int; inv : int; resp : int }

(* Same valid-history generator as test_checker_props: sequential
   writes, reads placed anywhere, each returning a legal value. *)
let generate rng_seed n_writes n_reads =
  let rng = Rng.create (Int64.of_int rng_seed) in
  let h = H.create () in
  let writes = ref [] in
  let t = ref 10 in
  for i = 1 to n_writes do
    let inv = !t + Rng.int_in rng 1 10 in
    let resp = inv + Rng.int_in rng 5 25 in
    t := resp;
    let id = H.begin_write h ~client:0 ~value:i ~time:inv in
    H.end_write h ~id ~time:resp ~ts:(Some i);
    writes := { value = i; inv; resp } :: !writes
  done;
  let writes = List.rev !writes in
  let horizon = !t + 20 in
  for _ = 1 to n_reads do
    let inv = Rng.int_in rng 11 horizon in
    let resp = inv + Rng.int_in rng 1 15 in
    let last_completed =
      List.fold_left (fun acc w -> if w.resp < inv then Some w else acc) None writes
    in
    let overlapping = List.filter (fun w -> w.inv <= resp && w.resp >= inv) writes in
    let legal =
      (match last_completed with Some w -> [ w.value ] | None -> [])
      @ List.map (fun w -> w.value) overlapping
    in
    match legal with
    | [] -> ()
    | _ ->
        let v = List.nth legal (Rng.int rng (List.length legal)) in
        let id = H.begin_read h ~client:1 ~time:inv in
        H.end_read h ~id ~time:resp ~outcome:(H.Value v)
  done;
  (h, writes)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

(* Replay operation records into a fresh history.  Fresh ids are
   assigned, so only id-independent facts (ok-ness, violation kinds)
   may be compared across a rebuild. *)
let rebuild ops =
  let h = H.create () in
  List.iter
    (fun op ->
      match op with
      | H.Write { client; value; inv; resp; ts; _ } -> (
          let id = H.begin_write h ~client ~value ~time:inv in
          match resp with Some time -> H.end_write h ~id ~time ~ts | None -> ())
      | H.Read { client; inv; resp; outcome; _ } -> (
          let id = H.begin_read h ~client ~time:inv in
          match resp with Some time -> H.end_read h ~id ~time ~outcome | None -> ()))
    ops;
  h

let has_stale (r : Reg.report) =
  List.exists (fun (v : Reg.violation) -> v.kind = `Stale) r.violations

let qcheck_regular_invariant_under_record_order =
  QCheck.Test.make
    ~name:"metamorphic: regular history stays regular under record reordering" ~count:300
    QCheck.(quad (int_bound 100_000) (int_range 1 10) (int_range 1 12) (int_bound 100_000))
    (fun (seed, nw, nr, shuffle_seed) ->
      let h, _ = generate seed nw nr in
      let rng = Rng.create (Int64.of_int shuffle_seed) in
      let h' = rebuild (shuffle rng (H.ops h)) in
      (Reg.check ~ts_prec:prec h).violations = [] && (Reg.check ~ts_prec:prec h').violations = [])

let qcheck_regular_invariant_under_read_removal =
  QCheck.Test.make ~name:"metamorphic: removing any one read keeps a regular history regular"
    ~count:150
    QCheck.(triple (int_bound 100_000) (int_range 1 8) (int_range 1 10))
    (fun (seed, nw, nr) ->
      let h, _ = generate seed nw nr in
      let ops = H.ops h in
      let read_ids =
        List.filter_map (function H.Read { id; _ } -> Some id | _ -> None) ops
      in
      List.for_all
        (fun victim ->
          let pruned =
            List.filter (function H.Read { id; _ } -> id <> victim | _ -> true) ops
          in
          (Reg.check ~ts_prec:prec (rebuild pruned)).violations = [])
        read_ids)

let qcheck_stale_survives_transformations =
  QCheck.Test.make
    ~name:"metamorphic: an injected stale read stays flagged through reorder and removal"
    ~count:200
    QCheck.(quad (int_bound 100_000) (int_range 3 10) (int_range 1 8) (int_bound 100_000))
    (fun (seed, nw, nr, shuffle_seed) ->
      let h, writes = generate seed nw nr in
      (* a read strictly after every write, returning the first value:
         strictly stale because nw >= 3 later writes completed *)
      let last = List.fold_left (fun acc w -> max acc w.resp) 0 writes in
      let stale_id = H.begin_read h ~client:2 ~time:(last + 5) in
      H.end_read h ~id:stale_id ~time:(last + 10) ~outcome:(H.Value 1);
      let ops = H.ops h in
      let rng = Rng.create (Int64.of_int shuffle_seed) in
      let flagged_direct = has_stale (Reg.check ~ts_prec:prec h) in
      let flagged_shuffled =
        has_stale (Reg.check ~ts_prec:prec (rebuild (shuffle rng ops)))
      in
      (* drop one innocent read, keep the stale one: still flagged *)
      let innocent =
        List.filter_map
          (function H.Read { id; _ } when id <> stale_id -> Some id | _ -> None)
          ops
      in
      let flagged_pruned =
        match innocent with
        | [] -> true
        | victim :: _ ->
            has_stale
              (Reg.check ~ts_prec:prec
                 (rebuild
                    (List.filter
                       (function H.Read { id; _ } -> id <> victim | _ -> true)
                       ops)))
      in
      flagged_direct && flagged_shuffled && flagged_pruned)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_regular_invariant_under_record_order;
    QCheck_alcotest.to_alcotest qcheck_regular_invariant_under_read_removal;
    QCheck_alcotest.to_alcotest qcheck_stale_survives_transformations;
  ]
