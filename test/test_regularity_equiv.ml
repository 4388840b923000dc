(* Equivalence suite for the sweep-based regularity checker.

   Regularity.check was rewritten from nested list scans into
   sorted-array interval sweeps; the retired scan survives verbatim as
   Regularity_oracle.  The contract is bit-for-bit report equality —
   same violations with the same details and ops lists, in the same
   emission order, same checked/skipped counts — on *any* history, not
   just the well-behaved ones the simulator produces.  These generators
   therefore go far beyond the valid-history generator of
   test_checker_props: overlapping writers, incomplete and aborted
   operations, missing or reversed protocol timestamps, unwritten
   values, audit suffixes, and even histories whose responses precede
   their invocations. *)

module H = Sbft_spec.History
module Reg = Sbft_spec.Regularity
module Oracle = Sbft_spec.Regularity_oracle
module Rng = Sbft_sim.Rng

let prec = ( < )

(* One random operation spec; realized into a history afterwards so the
   op-id order (which fixes the oracle's emission order) is itself
   random with respect to invocation times. *)
type spec =
  | W of { value : int; inv : int; resp : int option; ts : int option }
  | R of { inv : int; resp : int option; outcome : H.read_outcome }

let gen_specs rng ~allow_illformed =
  let nw = Rng.int rng 18 in
  let nr = Rng.int rng 18 in
  let span = 120 in
  let interval () =
    let inv = Rng.int rng span in
    if allow_illformed && Rng.chance rng 0.15 then (inv, Some (inv - 1 - Rng.int rng 10))
    else if Rng.chance rng 0.15 then (inv, None)
    else (inv, Some (inv + Rng.int rng 40))
  in
  let writes =
    List.init nw (fun i ->
        let inv, resp = interval () in
        let ts =
          match Rng.int rng 4 with
          | 0 -> None
          | 1 -> Some (nw - i) (* reversed: manufactures `Order breaches *)
          | 2 -> Some (Rng.int rng 6) (* collisions and arbitrary order *)
          | _ -> Some i
        in
        (* a write without a response records no timestamp either *)
        W { value = i + 1; inv; resp; ts = (if resp = None then None else ts) })
  in
  let reads =
    List.init nr (fun _ ->
        let inv, resp = interval () in
        let outcome =
          match Rng.int rng 10 with
          | 0 -> H.Abort
          | 1 -> H.Incomplete
          | 2 -> H.Value 424242 (* unwritten *)
          | _ -> H.Value (1 + Rng.int rng (max 1 nw))
        in
        let resp = match outcome with H.Incomplete -> None | _ -> resp in
        R { inv; resp; outcome })
  in
  let a = Array.of_list (writes @ reads) in
  Rng.shuffle rng a;
  Array.to_list a

let realize specs =
  let h = H.create () in
  List.iter
    (fun s ->
      match s with
      | W { value; inv; resp; ts } ->
          let id = H.begin_write h ~client:0 ~value ~time:inv in
          Option.iter (fun t -> H.end_write h ~id ~time:t ~ts) resp
      | R { inv; resp; outcome } ->
          let id = H.begin_read h ~client:1 ~time:inv in
          Option.iter (fun t -> H.end_read h ~id ~time:t ~outcome) resp)
    specs;
  h

let pp_report r = Format.asprintf "%a" Reg.pp_report r

let same_report seed ~allow_illformed =
  let rng = Rng.create (Int64.of_int seed) in
  let h = realize (gen_specs rng ~allow_illformed) in
  let after = if Rng.chance rng 0.5 then Rng.int rng 80 else 0 in
  let sweep = Reg.check ~after ~ts_prec:prec h in
  let scan = Oracle.check ~after ~ts_prec:prec h in
  if sweep = scan then true
  else
    QCheck.Test.fail_reportf "reports diverge (seed %d, after %d)@.sweep: %s@.scan: %s" seed
      after (pp_report sweep) (pp_report scan)

let qcheck_equiv_wellformed =
  QCheck.Test.make ~count:2000
    ~name:"regularity: sweep check == retired scan on random histories"
    QCheck.(int_bound 10_000_000)
    (fun seed -> same_report seed ~allow_illformed:false)

let qcheck_equiv_illformed =
  QCheck.Test.make ~count:500
    ~name:"regularity: sweep check == retired scan on ill-formed histories (resp < inv)"
    QCheck.(int_bound 10_000_000)
    (fun seed -> same_report seed ~allow_illformed:true)

let qcheck_order_equiv =
  QCheck.Test.make ~count:2000
    ~name:"regularity: sweep order_violations == retired scan order_violations"
    QCheck.(pair (int_bound 10_000_000) (int_bound 60))
    (fun (seed, after) ->
      let rng = Rng.create (Int64.of_int seed) in
      let specs =
        List.filter (function W _ -> true | R _ -> false) (gen_specs rng ~allow_illformed:false)
      in
      let writes = Reg.write_records (realize specs) in
      Reg.order_violations ~after ~ts_prec:prec writes
      = Oracle.order_violations ~after ~ts_prec:prec writes)

(* The valid-history generator from test_checker_props exercises the
   no-violation fast path; re-check equivalence there too (and pin that
   both say "pass"), since that is the shape the harness audits in the
   steady state. *)
let qcheck_equiv_valid =
  QCheck.Test.make ~count:300
    ~name:"regularity: sweep == scan on sequential valid histories"
    QCheck.(triple (int_bound 100_000) (int_range 1 12) (int_range 1 15))
    (fun (seed, nw, nr) ->
      let h, _, _ = Test_checker_props.generate seed nw nr in
      let sweep = Reg.check ~ts_prec:prec h in
      sweep = Oracle.check ~ts_prec:prec h && (sweep.Reg.violations = []))

(* Domain fan-out of the same equivalence property: [same_report] is a
   pure function of its seed, so a seed block partitions across domains
   with no effect on which checks run or what they verify — the suite's
   wall-clock scales down with cores, its verdicts do not change. *)
let test_equiv_parallel_sweep () =
  let seeds = Array.init 600 (fun i -> 7_000_000 + (i * 131)) in
  let domains = min 4 (Sbft_harness.Par.recommended_domains ()) in
  let ok =
    Sbft_harness.Par.map_slices ~domains seeds (fun _ seed ->
        same_report seed ~allow_illformed:(seed mod 3 = 0))
  in
  Alcotest.(check int) "all seeds checked" (Array.length seeds) (Array.length ok);
  Array.iter (fun b -> Alcotest.(check bool) "sweep == scan" true b) ok

let suite =
  [
    Alcotest.test_case "equivalence sweep fans out across domains" `Quick
      test_equiv_parallel_sweep;
    QCheck_alcotest.to_alcotest qcheck_equiv_wellformed;
    QCheck_alcotest.to_alcotest qcheck_equiv_illformed;
    QCheck_alcotest.to_alcotest qcheck_order_equiv;
    QCheck_alcotest.to_alcotest qcheck_equiv_valid;
  ]
