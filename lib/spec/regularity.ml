type violation = {
  read_id : int;
  kind : [ `Stale | `Future | `Unwritten | `Inversion of int | `Order ];
  detail : string;
  ops : int list; (* every operation id implicated, for trace forensics *)
}

type report = { checked_reads : int; skipped_reads : int; violations : violation list }

type 'ts wrec = { wid : int; value : int; inv : int; resp : int option; wts : 'ts option }

let write_records h =
  List.filter_map
    (function
      | History.Write w -> Some { wid = w.id; value = w.value; inv = w.inv; resp = w.resp; wts = w.ts }
      | History.Read _ -> None)
    (History.ops h)

(* Shared violation constructors so the sweep and the scan cannot drift
   apart on the report text. *)

let order_violation a b =
  {
    read_id = -1;
    kind = `Order;
    detail =
      Printf.sprintf
        "isolated consecutive writes %d (value %d) then %d (value %d) have reversed \
         protocol timestamps"
        a.wid a.value b.wid b.value;
    ops = [ a.wid; b.wid ];
  }

let stale_detail rid v w' =
  Printf.sprintf
    "read %d returned value %d but write of %d started after that value was written and \
     completed before the read began"
    rid v w'.value

let inversion_detail r2_id r2_v r1_id r1_v =
  Printf.sprintf
    "read %d returned value %d after read %d had returned the strictly newer value %d (both \
     writes completed before read %d began)"
    r2_id r2_v r1_id r1_v r2_id

type rrec = { rid : int; rv : int; rinv : int; rresp : int }

(* ------------------------------------------------------------------ *)
(* Lemma 8 check, on exactly the pairs the lemma speaks about: write A
   completes before write B begins and no third write overlaps either
   (the lemma's "no other write operation is executed between w1 and
   w2").  For such an isolated pair the protocol's timestamps must not
   order B before A.  Pairs entangled with other concurrent writes are
   exempt: bounded labels only promise domination over the timestamps
   actually collected, and a racing write can displace them — the read
   rule never relies on more.

   Only pairs fully inside the audited suffix: a transient fault
   between two writes legitimately breaks the label chain, and the
   pseudo-stabilization contract restarts at the next completed write.

   Sweep version: once the completed writes are sorted by invocation
   time (with response ≥ invocation, which the fictional global clock
   guarantees), an isolated pair is necessarily *adjacent* in that
   order — any write between them in invocation order overlaps the
   span — so it suffices to test each adjacent pair (a, b) for

     - real-time precedence     a.resp < b.inv,
     - a clean left frontier    max resp over writes before a < a.inv,
     - a clean right frontier   the write after b starts after b.resp.

   That is O(W log W) against the retired scan's O(W³); the retired
   scan remains available as {!Regularity_oracle.check} and the two are
   held to identical reports by the equivalence suite. *)
let order_violations ~after ~ts_prec writes =
  let completed = List.filter (fun w -> w.resp <> None && w.inv >= after) writes in
  let s = Array.of_list completed in
  let len = Array.length s in
  if len < 2 then []
  else begin
    (* positions in list order make the emission order reproducible:
       the scan emitted pairs ordered by the first write's position *)
    let idx = Array.init len (fun i -> i) in
    Array.sort
      (fun i j -> if s.(i).inv <> s.(j).inv then compare s.(i).inv s.(j).inv else compare i j)
      idx;
    let resp i = Option.get s.(idx.(i)).resp in
    let inv i = s.(idx.(i)).inv in
    (* prefix.(i) = max resp over sorted positions 0..i *)
    let prefix = Array.make len min_int in
    for i = 0 to len - 1 do
      prefix.(i) <- if i = 0 then resp i else max prefix.(i - 1) (resp i)
    done;
    let out = ref [] in
    for i = 0 to len - 2 do
      let a = s.(idx.(i)) and b = s.(idx.(i + 1)) in
      if
        resp i < inv (i + 1)
        && (i = 0 || prefix.(i - 1) < inv i)
        && (i + 2 >= len || inv (i + 2) > resp (i + 1))
      then
        match a.wts, b.wts with
        | Some ta, Some tb when ts_prec tb ta && not (ts_prec ta tb) ->
            out := (idx.(i), order_violation a b) :: !out
        | _ -> ()
    done;
    List.map snd (List.sort (fun (p, _) (q, _) -> compare p q) !out)
  end

(* ------------------------------------------------------------------ *)
(* Retired list-scan implementation.  It stays here for two reasons:
   re-exported as {!Regularity_oracle}, it is the oracle the sweep is
   equivalence-tested and benchmarked against; and [check] still
   delegates to it for degenerate histories whose responses precede
   their invocations (nothing the simulator can record, but the checker
   must not silently mis-audit a hand-built history either). *)

let order_violations_scan ~after ~ts_prec writes =
  let completed = List.filter (fun w -> w.resp <> None && w.inv >= after) writes in
  let overlaps lo hi w = w.inv <= hi && Option.value ~default:max_int w.resp >= lo in
  let out = ref [] in
  List.iter
    (fun a ->
      let a_resp = Option.get a.resp in
      List.iter
        (fun b ->
          if
            a.wid <> b.wid && a_resp < b.inv
            && not
                 (List.exists
                    (fun c -> c.wid <> a.wid && c.wid <> b.wid && overlaps a.inv (Option.get b.resp) c)
                    completed)
          then
            match a.wts, b.wts with
            | Some ta, Some tb when ts_prec tb ta && not (ts_prec ta tb) ->
                out := order_violation a b :: !out
            | _ -> ())
        completed)
    completed;
  List.rev !out

let check_scan ?(after = 0) ~ts_prec h =
  let writes = write_records h in
  (* Unique values are a workload contract; bail out loudly otherwise. *)
  let by_value = Hashtbl.create 64 in
  List.iter
    (fun w ->
      if Hashtbl.mem by_value w.value then
        invalid_arg (Printf.sprintf "Regularity.check: duplicate written value %d" w.value)
      else Hashtbl.add by_value w.value w)
    writes;
  let checked = ref 0 and skipped = ref 0 in
  let violations = ref (List.rev (order_violations_scan ~after ~ts_prec writes)) in
  let flag ?(also = []) read_id kind detail =
    let ops = if read_id >= 0 then read_id :: also else also in
    violations := { read_id; kind; detail; ops } :: !violations
  in
  let checked_reads = ref [] in
  List.iter
    (function
      | History.Write _ -> ()
      | History.Read r -> (
          match r.outcome, r.resp with
          | (History.Abort | History.Incomplete), _ | _, None -> incr skipped
          | History.Value _, _ when r.inv < after -> incr skipped
          | History.Value v, Some r_resp -> (
              incr checked;
              match Hashtbl.find_opt by_value v with
              | None -> flag r.id `Unwritten (Printf.sprintf "read %d returned unwritten value %d" r.id v)
              | Some w -> (
                  checked_reads := { rid = r.id; rv = v; rinv = r.inv; rresp = r_resp } :: !checked_reads;
                  if w.inv > r_resp then
                    flag ~also:[ w.wid ] r.id `Future
                      (Printf.sprintf "read %d returned value %d written by a later write" r.id v)
                  else
                    match w.resp with
                    | Some w_resp when w_resp < r.inv ->
                        (* Not concurrent: w must not be overwritten in
                           real time before the read began. *)
                        List.iter
                          (fun w' ->
                            match w'.resp with
                            | Some w'_resp
                              when w'.wid <> w.wid && w'_resp < r.inv && w_resp < w'.inv ->
                                flag ~also:[ w.wid; w'.wid ] r.id `Stale (stale_detail r.id v w')
                            | _ -> ())
                          writes
                    | _ -> (* concurrent or failed write: allowed *) ()))))
    (History.ops h);
  (* Consistency across read pairs: a later read must not step back to a
     value strictly real-time-older than what an earlier read already
     returned, once the earlier read's write has completed. *)
  let reads = List.rev !checked_reads in
  List.iter
    (fun r1 ->
      List.iter
        (fun r2 ->
          if r1.rid <> r2.rid && r1.rresp < r2.rinv && r1.rv <> r2.rv then
            match Hashtbl.find_opt by_value r1.rv, Hashtbl.find_opt by_value r2.rv with
            | Some w1, Some w2 -> (
                match w1.resp, w2.resp with
                | Some w1_resp, Some w2_resp ->
                    if w2_resp < w1.inv && w1_resp < r2.rinv then
                      flag ~also:[ r1.rid; w1.wid; w2.wid ] r2.rid (`Inversion r1.rid)
                        (inversion_detail r2.rid r2.rv r1.rid r1.rv)
                | _ -> ())
            | _ -> ())
        reads)
    reads;
  { checked_reads = !checked; skipped_reads = !skipped; violations = List.rev !violations }

(* ------------------------------------------------------------------ *)
(* The sweep checker.

   The scan's three quadratic-or-worse components are replaced by
   sorted-array frontier queries; everything else (the per-read state
   machine, the verdict taxonomy, the report text, even the order in
   which violations are emitted) is reproduced exactly:

   - staleness: "is value v overwritten before read r began" becomes a
     binary search over all writes sorted by invocation time with a
     suffix-minimum completion frontier — one O(log W) query per read
     instead of an O(W) scan;
   - read-pair inversions: candidate earlier reads are sorted by the
     time both the read and its write have completed, with a
     prefix-maximum of the write invocations — one O(log R) query per
     read instead of an O(R) scan;
   - Lemma 8 pairs: the adjacency sweep in [order_violations].

   The frontier queries only answer "might a violation exist"; when one
   fires, the exact (rare) offenders are enumerated and re-ordered to
   match the scan's emission order, so violating histories cost output
   time, not asymptotics. *)

(* first position in [keys] (ascending) whose key is > target *)
let first_gt keys target =
  let lo = ref 0 and hi = ref (Array.length keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if keys.(mid) > target then hi := mid else lo := mid + 1
  done;
  !lo

(* first position in [keys] (ascending) whose key is >= target *)
let first_ge keys target =
  let lo = ref 0 and hi = ref (Array.length keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if keys.(mid) >= target then hi := mid else lo := mid + 1
  done;
  !lo

let check_sweep ~after ~ts_prec h =
  let writes = write_records h in
  (* Unique values are a workload contract; bail out loudly otherwise. *)
  let by_value = Hashtbl.create 64 in
  List.iter
    (fun w ->
      if Hashtbl.mem by_value w.value then
        invalid_arg (Printf.sprintf "Regularity.check: duplicate written value %d" w.value)
      else Hashtbl.add by_value w.value w)
    writes;
  (* Staleness frontier: every write, sorted by invocation time, with
     the completion time (max_int when still running) and a suffix
     minimum of completions.  "Some write invoked after X completed
     before Y" becomes: at the first sorted position with inv > X, is
     the suffix-minimum completion < Y? *)
  let wa = Array.of_list writes in
  let nw = Array.length wa in
  let worder = Array.init nw (fun i -> i) in
  Array.sort
    (fun i j -> if wa.(i).inv <> wa.(j).inv then compare wa.(i).inv wa.(j).inv else compare i j)
    worder;
  let winv = Array.map (fun i -> wa.(i).inv) worder in
  let wresp i = Option.value ~default:max_int wa.(worder.(i)).resp in
  let suffmin = Array.make (max nw 1) max_int in
  for i = nw - 1 downto 0 do
    suffmin.(i) <- if i = nw - 1 then wresp i else min (wresp i) suffmin.(i + 1)
  done;
  (* Enumerate the writes that really overwrote [w] before read (rid,
     rv, rinv) began, in the scan's emission order (= list order of
     [writes], which is the order of [wa]). *)
  let stale_violations rid rv rinv w w_resp =
    let out = ref [] in
    let lo = first_gt winv w_resp in
    if lo < nw && suffmin.(lo) < rinv then begin
      for i = lo to nw - 1 do
        let oi = worder.(i) in
        let w' = wa.(oi) in
        match w'.resp with
        | Some w'_resp when w'.wid <> w.wid && w'_resp < rinv ->
            (* w'.inv > w_resp holds by the sort position *)
            out :=
              ( oi,
                {
                  read_id = rid;
                  kind = `Stale;
                  detail = stale_detail rid rv w';
                  ops = [ rid; w.wid; w'.wid ];
                } )
              :: !out
        | _ -> ()
      done
    end;
    List.map snd (List.sort (fun (p, _) (q, _) -> compare p q) !out)
  in
  let checked = ref 0 and skipped = ref 0 in
  let violations = ref (List.rev (order_violations ~after ~ts_prec writes)) in
  let flag ?(also = []) read_id kind detail =
    let ops = if read_id >= 0 then read_id :: also else also in
    violations := { read_id; kind; detail; ops } :: !violations
  in
  let checked_reads = ref [] in
  List.iter
    (function
      | History.Write _ -> ()
      | History.Read r -> (
          match r.outcome, r.resp with
          | (History.Abort | History.Incomplete), _ | _, None -> incr skipped
          | History.Value _, _ when r.inv < after -> incr skipped
          | History.Value v, Some r_resp -> (
              incr checked;
              match Hashtbl.find_opt by_value v with
              | None -> flag r.id `Unwritten (Printf.sprintf "read %d returned unwritten value %d" r.id v)
              | Some w -> (
                  checked_reads := { rid = r.id; rv = v; rinv = r.inv; rresp = r_resp } :: !checked_reads;
                  if w.inv > r_resp then
                    flag ~also:[ w.wid ] r.id `Future
                      (Printf.sprintf "read %d returned value %d written by a later write" r.id v)
                  else
                    match w.resp with
                    | Some w_resp when w_resp < r.inv ->
                        List.iter
                          (fun viol -> violations := viol :: !violations)
                          (stale_violations r.id v r.inv w w_resp)
                    | _ -> (* concurrent or failed write: allowed *) ()))))
    (History.ops h);
  (* Consistency across read pairs: a later read must not step back to a
     value strictly real-time-older than what an earlier read already
     returned, once the earlier read's write has completed.

     A read r1 (of completed write w1) can convict a later read r2 once
     both r1 and w1 have finished before r2 begins and w1 began after
     r2's write completed.  Sorting candidates by
     max(r1.resp, w1.resp) with a prefix-maximum of w1.inv turns
     "does any candidate convict r2" into one binary search. *)
  let reads = Array.of_list (List.rev !checked_reads) in
  let nr = Array.length reads in
  if nr > 1 then begin
    let completed_writer rv =
      match Hashtbl.find_opt by_value rv with
      | Some w -> ( match w.resp with Some resp -> Some (w, resp) | None -> None)
      | None -> None
    in
    (* candidate r1's: reads whose write completed *)
    let cand = ref [] in
    Array.iter
      (fun r ->
        match completed_writer r.rv with
        | Some (w1, w1_resp) -> cand := (max r.rresp w1_resp, w1.inv) :: !cand
        | None -> ())
      reads;
    let cand = Array.of_list !cand in
    Array.sort (fun (ka, _) (kb, _) -> compare ka kb) cand;
    let ckeys = Array.map fst cand in
    let nc = Array.length cand in
    let prefmax = Array.make (max nc 1) min_int in
    for i = 0 to nc - 1 do
      prefmax.(i) <- if i = 0 then snd cand.(i) else max prefmax.(i - 1) (snd cand.(i))
    done;
    let out = ref [] in
    Array.iteri
      (fun i2 r2 ->
        match completed_writer r2.rv with
        | None -> ()
        | Some (_, w2_resp) ->
            let hi = first_ge ckeys r2.rinv in
            if hi > 0 && prefmax.(hi - 1) > w2_resp then
              (* someone convicts r2: recover the exact offenders in
                 the scan's r1 order *)
              Array.iteri
                (fun i1 r1 ->
                  if r1.rid <> r2.rid && r1.rresp < r2.rinv && r1.rv <> r2.rv then
                    match completed_writer r1.rv with
                    | Some (w1, w1_resp) when w2_resp < w1.inv && w1_resp < r2.rinv ->
                        let w2 = fst (Option.get (completed_writer r2.rv)) in
                        out :=
                          ( i1,
                            i2,
                            {
                              read_id = r2.rid;
                              kind = `Inversion r1.rid;
                              detail = inversion_detail r2.rid r2.rv r1.rid r1.rv;
                              ops = [ r2.rid; r1.rid; w1.wid; w2.wid ];
                            } )
                        :: !out
                    | _ -> ())
                reads)
      reads;
    List.iter
      (fun (_, _, viol) -> violations := viol :: !violations)
      (List.sort (fun (a1, a2, _) (b1, b2, _) -> compare (a1, a2) (b1, b2)) !out)
  end;
  { checked_reads = !checked; skipped_reads = !skipped; violations = List.rev !violations }

(* The sweeps lean on responses never preceding invocations — true of
   anything the simulator's clock records.  A hand-built history that
   breaks it is audited by the scan instead, so [check]'s verdicts are
   exact on every input. *)
let history_wellformed h =
  List.for_all
    (function
      | History.Write { inv; resp = Some resp; _ } | History.Read { inv; resp = Some resp; _ } ->
          resp >= inv
      | _ -> true)
    (History.ops h)

let check ?(after = 0) ~ts_prec h =
  if history_wellformed h then check_sweep ~after ~ts_prec h else check_scan ~after ~ts_prec h

let pp_report fmt r =
  Format.fprintf fmt "@[<v>regularity: %d reads checked, %d skipped, %d violations@,"
    r.checked_reads r.skipped_reads (List.length r.violations);
  List.iter (fun v -> Format.fprintf fmt "  %s@," v.detail) r.violations;
  Format.fprintf fmt "@]"
