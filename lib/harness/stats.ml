type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
}

let mean xs =
  if Array.length xs = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let sorted = Array.copy xs in
    Array.sort Float.compare sorted;
    if p <= 0.0 then sorted.(0)
    else begin
      let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
      sorted.(max 0 (min (n - 1) (rank - 1)))
    end
  end

let hist_percentile_sat ~bounds ~counts p =
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then (0.0, false)
  else begin
    let rank = max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int total))) in
    let n = Array.length counts in
    let rec go i seen =
      if i >= n then if Array.length bounds = 0 then (0.0, true) else (bounds.(Array.length bounds - 1), true)
      else
        let seen = seen + counts.(i) in
        if seen >= rank then
          if i < Array.length bounds then (bounds.(i), false)
          else
            (* Overflow bucket: the ranked sample exceeded every finite
               bound.  The last bound is the best number available but
               it under-reports — the caller must surface the flag. *)
            (bounds.(Array.length bounds - 1), true)
        else go (i + 1) seen
    in
    go 0 0
  end

(* Bucket walk with the streaming digest as the saturation fallback: an
   in-range percentile keeps the exact bucket answer, a clamped one is
   replaced by the digest's estimate (still flagged, since it is an
   estimate rather than a bucket-exact rank). *)
let hist_percentile_resolved (h : Sbft_sim.Metrics.hist_snapshot) p =
  let v, sat = hist_percentile_sat ~bounds:h.bounds ~counts:h.counts p in
  if not sat then (v, false)
  else
    match h.stream with
    | Some q -> (Sbft_sim.Series.Quantile.quantile q p, true)
    | None -> (v, true)

let summarize xs =
  let n = Array.length xs in
  if n = 0 then
    { count = 0; mean = 0.; stddev = 0.; min = 0.; p50 = 0.; p95 = 0.; p99 = 0.; max = 0. }
  else begin
    let m = mean xs in
    let var = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs /. float_of_int n in
    let mn = Array.fold_left min xs.(0) xs and mx = Array.fold_left max xs.(0) xs in
    {
      count = n;
      mean = m;
      stddev = sqrt var;
      min = mn;
      p50 = percentile xs 50.0;
      p95 = percentile xs 95.0;
      p99 = percentile xs 99.0;
      max = mx;
    }
  end

let pp_summary fmt s =
  Format.fprintf fmt "n=%d mean=%.1f sd=%.1f min=%.0f p50=%.0f p95=%.0f p99=%.0f max=%.0f" s.count
    s.mean s.stddev s.min s.p50 s.p95 s.p99 s.max

let of_ints l = Array.of_list (List.map float_of_int l)
