type violation = { read_id : int; detail : string }

type report = { checked_reads : int; unconstrained_reads : int; violations : violation list }

let check ?(after = 0) ~ts_prec h =
  let writes =
    List.filter_map
      (function
        | History.Write w -> Some (w.id, w.value, w.inv, w.resp, w.ts)
        | History.Read _ -> None)
      (History.ops h)
  in
  let checked = ref 0 and unconstrained = ref 0 in
  let violations = ref [] in
  List.iter
    (function
      | History.Write _ -> ()
      | History.Read r -> (
          match r.outcome, r.resp with
          | History.Value v, Some r_resp when r.inv >= after ->
              let concurrent_with_write =
                List.exists
                  (fun (_, _, w_inv, w_resp, _) ->
                    let ends_before = match w_resp with Some wr -> wr < r.inv | None -> false in
                    let starts_after = w_inv > r_resp in
                    not (ends_before || starts_after))
                  writes
              in
              if concurrent_with_write then incr unconstrained
              else begin
                incr checked;
                (* Last completed write before the read: completed, and no
                   other completed-before-read write is provably after it. *)
                let prior =
                  List.filter
                    (fun (_, _, _, w_resp, _) ->
                      match w_resp with Some wr -> wr < r.inv | None -> false)
                    writes
                in
                let is_last (_, _, _, w_resp, w_ts) =
                  not
                    (List.exists
                       (fun (_, _, w'_inv, _, w'_ts) ->
                         (match w_resp with Some wr -> wr < w'_inv | None -> false)
                         ||
                         match w_ts, w'_ts with
                         | Some a, Some b -> ts_prec a b
                         | _ -> false)
                       prior)
                in
                let last_values =
                  List.filter_map (fun w -> if is_last w then Some ((fun (_, v, _, _, _) -> v) w) else None) prior
                in
                match prior with
                | [] -> () (* nothing written yet: unconstrained start *)
                | _ ->
                    if not (List.mem v last_values) then
                      violations :=
                        {
                          read_id = r.id;
                          detail =
                            Printf.sprintf
                              "read %d (no concurrent write) returned %d, not the last written value"
                              r.id v;
                        }
                        :: !violations
              end
          | _ -> ())
      )
    (History.ops h);
  { checked_reads = !checked; unconstrained_reads = !unconstrained; violations = List.rev !violations }
