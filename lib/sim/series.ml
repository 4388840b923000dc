(* Bounded-memory streaming time series.

   Everything here is O(1) memory in the length of the run: a window
   aggregate is a handful of scalars plus a fixed-capacity quantile
   digest, a series keeps one open window, a ring of the last [keep]
   closed windows and one all-time rollup, and the stabilization
   detector is three integers of state.  All of it feeds off the
   virtual clock and op completions only — never the trace — so every
   number is bit-identical across trace levels and under replay. *)

(* ------------------------------------------------------------------ *)
(* Mergeable streaming quantile digest.

   A P²-style marker digest: at most [cap] weighted markers (mean,
   weight) kept sorted by mean.  New samples buffer as weight-1 markers
   and are folded in by an equal-weight compression pass when the
   buffer fills; merging two digests concatenates their markers and
   compresses the union the same way.  Rank error is ~1/cap, memory is
   2*cap floats, and every operation is deterministic — no randomness,
   no wall clock — so digests agree across replays. *)

module Quantile = struct
  type t = {
    cap : int;
    mutable means : float array;  (* sorted, length [len] used *)
    mutable weights : float array;
    mutable len : int;
    mutable pending : float array;  (* unsorted weight-1 samples *)
    mutable npending : int;
    mutable count : int;
  }

  let default_cap = 64

  let create ?(cap = default_cap) () =
    let cap = max 8 cap in
    (* Everything is allocated lazily: a digest is created per window
       per series, and most windows see a handful of samples, so the
       marker arrays appear only at the first compression and the
       pending buffer grows geometrically from 16 slots up to 4x the
       marker budget.  This keeps the per-window cost proportional to
       what the window actually observed (the bench gate holds the
       whole series layer under 5%). *)
    {
      cap;
      means = [||];
      weights = [||];
      len = 0;
      pending = Array.make 16 0.0;
      npending = 0;
      count = 0;
    }

  let count t = t.count

  (* Compress a sorted marker list down to ~cap markers of roughly
     equal weight.  Deterministic greedy walk: close the current group
     once it reaches total/cap. *)
  let compress t (markers : (float * float) array) =
    Array.sort (fun (a, _) (b, _) -> Float.compare a b) markers;
    let total = Array.fold_left (fun acc (_, w) -> acc +. w) 0.0 markers in
    let chunk = total /. float_of_int t.cap in
    let out_m = Array.make t.cap 0.0 and out_w = Array.make t.cap 0.0 in
    let oi = ref 0 in
    let gm = ref 0.0 and gw = ref 0.0 in
    let flush () =
      if !gw > 0.0 && !oi < t.cap then begin
        out_m.(!oi) <- !gm /. !gw;
        out_w.(!oi) <- !gw;
        incr oi;
        gm := 0.0;
        gw := 0.0
      end
    in
    Array.iter
      (fun (m, w) ->
        gm := !gm +. (m *. w);
        gw := !gw +. w;
        (* Keep the last slot open for the tail so nothing is dropped. *)
        if !gw >= chunk && !oi < t.cap - 1 then flush ())
      markers;
    flush ();
    t.means <- out_m;
    t.weights <- out_w;
    t.len <- !oi

  (* Index of the larger son of [i] in the ternary heap [a.(0 .. l-1)],
     or -1 when [i] has none. *)
  let maxson (a : float array) l i =
    let i31 = i + i + i + 1 in
    if i31 + 2 < l then begin
      let x = if Float.compare a.(i31) a.(i31 + 1) < 0 then i31 + 1 else i31 in
      if Float.compare a.(x) a.(i31 + 2) < 0 then i31 + 2 else x
    end
    else if i31 + 1 < l && Float.compare a.(i31) a.(i31 + 1) < 0 then i31 + 1
    else if i31 < l then i31
    else -1

  (* [Array.sort Float.compare] specialised to floats: the stdlib's
     ternary heap sort step for step, so the output permutation — down
     to the order of [0.0] and [-0.0], or of two NaNs — is identical,
     but no element is boxed to be compared.  Loops instead of
     recursion keep the moving element in a register. *)
  let sort_floats (a : float array) =
    let l = Array.length a in
    for i0 = ((l + 1) / 3) - 1 downto 0 do
      let e = a.(i0) in
      let i = ref i0 and go = ref true in
      while !go do
        let j = maxson a l !i in
        if j >= 0 && Float.compare a.(j) e > 0 then begin
          a.(!i) <- a.(j);
          i := j
        end
        else begin
          a.(!i) <- e;
          go := false
        end
      done
    done;
    for n = l - 1 downto 2 do
      let e = a.(n) in
      a.(n) <- a.(0);
      let i = ref 0 and j = ref (maxson a n 0) in
      while !j >= 0 do
        a.(!i) <- a.(!j);
        i := !j;
        j := maxson a n !j
      done;
      let go = ref true in
      while !go do
        let father = (!i - 1) / 3 in
        if Float.compare a.(father) e < 0 then begin
          a.(!i) <- a.(father);
          if father > 0 then i := father
          else begin
            a.(0) <- e;
            go := false
          end
        end
        else begin
          a.(!i) <- e;
          go := false
        end
      done
    done;
    if l > 1 then begin
      let e = a.(1) in
      a.(1) <- a.(0);
      a.(0) <- e
    end

  (* Fold the pending weight-1 samples in without boxing: sort the
     pending slice in place, then run the same greedy equal-weight
     grouping as {!compress} over the merge-walk of the two sorted
     sequences.  This is the per-sample hot path — [compress] with its
     tuple array is kept for the rare digest-to-digest {!merge}.  The
     group accumulators are local float refs that no closure captures,
     so they stay unboxed.  Each sum puts the product first: when both
     operands are NaNs, the first one's sign survives, and that is the
     order the boxed accumulator's code used. *)
  let fold_pending t =
    if t.npending > 0 then begin
      let np = t.npending in
      let p = Array.sub t.pending 0 np in
      sort_floats p;
      let total = ref (float_of_int np) in
      for i = 0 to t.len - 1 do
        total := !total +. t.weights.(i)
      done;
      let chunk = !total /. float_of_int t.cap in
      let out_m = Array.make t.cap 0.0 and out_w = Array.make t.cap 0.0 in
      let oi = ref 0 in
      let gm = ref 0.0 and gw = ref 0.0 in
      let i = ref 0 and j = ref 0 in
      while !i < t.len || !j < np do
        if !j >= np || (!i < t.len && t.means.(!i) <= p.(!j)) then begin
          gm := (t.means.(!i) *. t.weights.(!i)) +. !gm;
          gw := !gw +. t.weights.(!i);
          incr i
        end
        else begin
          gm := (p.(!j) *. 1.0) +. !gm;
          gw := !gw +. 1.0;
          incr j
        end;
        (* Keep the last slot open for the tail so nothing is dropped. *)
        if !gw >= chunk && !oi < t.cap - 1 && !gw > 0.0 then begin
          out_m.(!oi) <- !gm /. !gw;
          out_w.(!oi) <- !gw;
          incr oi;
          gm := 0.0;
          gw := 0.0
        end
      done;
      if !gw > 0.0 && !oi < t.cap then begin
        out_m.(!oi) <- !gm /. !gw;
        out_w.(!oi) <- !gw;
        incr oi
      end;
      t.means <- out_m;
      t.weights <- out_w;
      t.len <- !oi;
      t.npending <- 0
    end

  let add t v =
    t.count <- t.count + 1;
    if t.npending = Array.length t.pending then
      if t.npending >= 4 * t.cap then fold_pending t
      else begin
        let bigger = Array.make (2 * t.npending) 0.0 in
        Array.blit t.pending 0 bigger 0 t.npending;
        t.pending <- bigger
      end;
    t.pending.(t.npending) <- v;
    t.npending <- t.npending + 1

  let merge a b =
    let t = create ~cap:(max a.cap b.cap) () in
    fold_pending a;
    fold_pending b;
    let markers =
      Array.init (a.len + b.len) (fun i ->
          if i < a.len then (a.means.(i), a.weights.(i))
          else (b.means.(i - a.len), b.weights.(i - a.len)))
    in
    if Array.length markers > 0 then compress t markers;
    t.count <- a.count + b.count;
    t

  (* Quantile by linear interpolation between marker midpoints, the
     standard digest read-out: marker i's weight is centred on its
     cumulative midpoint. *)
  let quantile t p =
    fold_pending t;
    if t.len = 0 then 0.0
    else if t.len = 1 then t.means.(0)
    else begin
      let total = ref 0.0 in
      for i = 0 to t.len - 1 do
        total := !total +. t.weights.(i)
      done;
      let rank = Float.max 0.0 (Float.min 1.0 (p /. 100.0)) *. !total in
      let acc = ref 0.0 and i = ref 0 and res = ref t.means.(t.len - 1) and stop = ref false in
      while (not !stop) && !i < t.len do
        let mid = !acc +. (t.weights.(!i) /. 2.0) in
        if rank <= mid then begin
          (if !i = 0 then res := t.means.(0)
           else begin
             let prev_mid = !acc -. (t.weights.(!i - 1) /. 2.0) in
             let span = mid -. prev_mid in
             let frac = if span <= 0.0 then 0.0 else (rank -. prev_mid) /. span in
             res := t.means.(!i - 1) +. (frac *. (t.means.(!i) -. t.means.(!i - 1)))
           end);
          stop := true
        end
        else begin
          acc := !acc +. t.weights.(!i);
          incr i
        end
      done;
      !res
    end

  let markers t =
    fold_pending t;
    (Array.sub t.means 0 t.len, Array.sub t.weights 0 t.len)

  let to_json t =
    Json.Obj
      [
        ("count", Json.Int t.count);
        ("p50", Json.Float (quantile t 50.0));
        ("p95", Json.Float (quantile t 95.0));
        ("p99", Json.Float (quantile t 99.0));
      ]
end

(* ------------------------------------------------------------------ *)
(* One window's aggregate. *)

module Agg = struct
  type t = {
    mutable count : int;
    mutable sum : float;
    mutable min : float;
    mutable max : float;
    mutable q : Quantile.t option;  (* allocated on first observation *)
  }

  let empty () = { count = 0; sum = 0.0; min = Float.infinity; max = Float.neg_infinity; q = None }

  let is_empty a = a.count = 0

  let observe ?(quantiles = false) a v =
    a.count <- a.count + 1;
    a.sum <- a.sum +. v;
    if v < a.min then a.min <- v;
    if v > a.max then a.max <- v;
    if quantiles then begin
      let q = match a.q with
        | Some q -> q
        | None ->
            let q = Quantile.create () in
            a.q <- Some q;
            q
      in
      Quantile.add q v
    end

  let mean a = if a.count = 0 then 0.0 else a.sum /. float_of_int a.count

  let min a = if a.count = 0 then 0.0 else a.min

  let max a = if a.count = 0 then 0.0 else a.max

  let quantile a p = match a.q with None -> 0.0 | Some q -> Quantile.quantile q p

  (* Associative, commutative: merging per-shard windows into a fleet
     window loses nothing but quantile resolution (bounded by the
     digest's rank error — qcheck holds this to tolerance). *)
  let merge a b =
    {
      count = a.count + b.count;
      sum = a.sum +. b.sum;
      min = Float.min a.min b.min;
      max = Float.max a.max b.max;
      q =
        (match (a.q, b.q) with
        | None, None -> None
        | Some q, None | None, Some q -> Some (Quantile.merge q (Quantile.create ()))
        | Some qa, Some qb -> Some (Quantile.merge qa qb));
    }

  let to_json a =
    Json.Obj
      ([
         ("count", Json.Int a.count);
         ("sum", Json.Float a.sum);
         ("mean", Json.Float (mean a));
         ("min", Json.Float (min a));
         ("max", Json.Float (max a));
       ]
      @ match a.q with None -> [] | Some q -> [ ("q", Quantile.to_json q) ])
end

(* ------------------------------------------------------------------ *)
(* Tumbling-window series: one open window, a ring of the last [keep]
   closed ones, an all-time rollup.  Windows close lazily as later
   observations (or an explicit [roll_to]) arrive. *)

type t = {
  name : string;
  window : int;
  keep : int;
  quantiles : bool;
  mutable cur_index : int;  (* window index of the open window *)
  mutable cur : Agg.t;
  ring : Agg.t option array;  (* slot i holds window (index mod keep) *)
  ring_index : int array;  (* which window index occupies each slot *)
  total : Agg.t;
  mutable closed : int;  (* windows closed so far (including empty) *)
}

let create ?(keep = 64) ?(quantiles = false) ~window ~name () =
  if window <= 0 then invalid_arg "Series.create: window must be positive";
  let keep = max 1 keep in
  {
    name;
    window;
    keep;
    quantiles;
    cur_index = 0;
    cur = Agg.empty ();
    ring = Array.make keep None;
    ring_index = Array.make keep (-1);
    total = Agg.empty ();
    closed = 0;
  }

let name t = t.name

let window t = t.window

let index_of t time = if time < 0 then 0 else time / t.window

let close_one t =
  let idx = t.cur_index in
  let slot = idx mod t.keep in
  t.ring.(slot) <- Some t.cur;
  t.ring_index.(slot) <- idx;
  t.closed <- t.closed + 1;
  t.cur <- Agg.empty ();
  t.cur_index <- idx + 1

(* Close every window that ends at or before [time].  A long gap
   fast-forwards in O(keep): only the last [keep] windows are
   observable through [recent]/[merge_recent], and every one of the
   skipped windows is empty, so it suffices to close the (possibly
   non-empty) current window normally and then bulk-account the rest —
   bump [closed], jump [cur_index].  Stale ring
   slots left behind by the jump self-invalidate: readers accept a slot
   only when [ring_index.(slot)] equals the index they are asking for,
   so skipped-over windows correctly read back as empty.  This keeps a
   pathological 10^7-tick gap between observations (e.g. an idle shard
   against a 1-tick window) from materializing 10^7 aggregates one by
   one. *)
let roll_to t ~time =
  let target = index_of t time in
  if target - t.cur_index > t.keep then begin
    close_one t;
    let skipped = target - t.cur_index in
    t.closed <- t.closed + skipped;
    t.cur_index <- target
  end
  else
    while t.cur_index < target do
      close_one t
    done

let observe t ~time v =
  roll_to t ~time;
  Agg.observe ~quantiles:t.quantiles t.cur v;
  Agg.observe ~quantiles:t.quantiles t.total v

let total t = t.total

let closed_windows t = t.closed

(* The last [n] closed windows, oldest first, with empty windows
   materialized — exactly what a sparkline wants. *)
let recent t ?(n = max_int) () =
  let n = min n (min t.keep t.closed) in
  List.init n (fun i ->
      let idx = t.cur_index - n + i in
      let slot = ((idx mod t.keep) + t.keep) mod t.keep in
      let agg =
        if idx >= 0 && t.ring_index.(slot) = idx then
          match t.ring.(slot) with Some a -> a | None -> Agg.empty ()
        else Agg.empty ()
      in
      (idx, agg))

(* Merge the recent windows of several same-width series point-wise:
   the fleet view of per-shard series.  O(keep) memory however many
   shards roll up. *)
let merge_recent ?(n = max_int) series =
  match series with
  | [] -> []
  | first :: _ ->
      List.iter
        (fun s ->
          if s.window <> first.window then
            invalid_arg "Series.merge_recent: window widths differ")
        series;
      let hi = List.fold_left (fun acc s -> max acc s.cur_index) 0 series in
      let lo_bound = List.fold_left (fun acc s -> min acc (s.cur_index - min s.keep s.closed)) hi series in
      let lo = max lo_bound (hi - min n first.keep) in
      List.init (max 0 (hi - lo)) (fun i ->
          let idx = lo + i in
          let merged =
            List.fold_left
              (fun acc s ->
                let slot = ((idx mod s.keep) + s.keep) mod s.keep in
                if idx >= 0 && s.ring_index.(slot) = idx then
                  match s.ring.(slot) with Some a -> Agg.merge acc a | None -> acc
                else acc)
              (Agg.empty ()) series
          in
          (idx, merged))

let to_json t =
  let recent = recent t () in
  Json.Obj
    ([
       ("name", Json.String t.name);
       ("window", Json.Int t.window);
       ("windows_closed", Json.Int t.closed);
       ("t", Json.List (List.map (fun (idx, _) -> Json.Int (idx * t.window)) recent));
       ("count", Json.List (List.map (fun (_, a) -> Json.Int a.Agg.count) recent));
       ("sum", Json.List (List.map (fun (_, a) -> Json.Float a.Agg.sum) recent));
       ("mean", Json.List (List.map (fun (_, a) -> Json.Float (Agg.mean a)) recent));
     ]
    @ (if t.quantiles then
         [ ("p99", Json.List (List.map (fun (_, a) -> Json.Float (Agg.quantile a 99.0)) recent)) ]
       else [])
    @ [ ("total", Agg.to_json t.total) ])

(* ------------------------------------------------------------------ *)
(* Online pseudo-stabilization detector.

   The paper's claim is that violations decay to zero after the last
   transient fault; the detector watches a dirty/clean signal (aborted
   reads, violations, stale reads) per window and declares the
   stabilization point once [k] consecutive windows after the last
   fault are clean.  Three integers of state; fed from op completions,
   so the verdict is replay-deterministic and trace-level invariant.

   The declared point is provisional until [finalize]: a later dirty
   window revokes it and restarts the streak, so the final report is
   the earliest clean point with no dirt after it. *)

module Detector = struct
  type state = Pending | Stabilized of int  (* virtual time the clean suffix starts *)

  type t = {
    window : int;
    k : int;
    after : int;  (* last injected fault; the clock starts here *)
    mutable last_index : int;  (* last window index accounted for *)
    mutable streak_start : int;  (* index of the first window of the current clean streak *)
    mutable state : state;
    mutable dirty_windows : int;
    mutable observed : int;  (* raw dirty observations *)
  }

  let create ?(k = 3) ~window ~after () =
    if window <= 0 then invalid_arg "Detector.create: window must be positive";
    if k <= 0 then invalid_arg "Detector.create: k must be positive";
    let first = after / window in
    {
      window;
      k;
      after;
      last_index = first - 1;
      streak_start = first;
      state = Pending;
      dirty_windows = 0;
      observed = 0;
    }

  let declare t =
    (* The clean suffix starts at the streak's first window, clamped to
       the fault itself for the window the fault landed in. *)
    let start = max t.after (t.streak_start * t.window) in
    t.state <- Stabilized start

  (* Account for window [index] being dirty or clean.  Indices must be
     non-decreasing; gaps are clean windows. *)
  let step t ~index ~dirty =
    if index > t.last_index then begin
      (* The gap [last_index+1 .. index-1] was clean; the streak keeps
         running through it. *)
      t.last_index <- index;
      if dirty then begin
        t.dirty_windows <- t.dirty_windows + 1;
        t.streak_start <- index + 1;
        t.state <- Pending
      end
      else if t.state = Pending && index - t.streak_start + 1 >= t.k then declare t
    end
    else if dirty && index >= t.streak_start then begin
      (* Late dirt inside the supposed streak (same-window stragglers):
         restart from the next window. *)
      t.dirty_windows <- t.dirty_windows + 1;
      t.streak_start <- t.last_index + 1;
      t.state <- Pending
    end

  (* Feed one raw observation (an op completion).  Windowing is done
     here, so callers need no Series at all. *)
  let observe t ~time ~dirty =
    let index = if time < 0 then 0 else time / t.window in
    if dirty then t.observed <- t.observed + 1;
    step t ~index ~dirty

  (* Close the books at virtual time [now]: every fully elapsed window
     up to [now] counts toward the streak. *)
  let finalize t ~now =
    let last_full = (now / t.window) - 1 in
    if last_full > t.last_index then step t ~index:last_full ~dirty:false;
    t.state

  let state t = t.state

  let time_to_stabilize t =
    match t.state with Pending -> None | Stabilized at -> Some (max 0 (at - t.after))

  let dirty_windows t = t.dirty_windows

  let to_json t =
    Json.Obj
      [
        ("window", Json.Int t.window);
        ("k", Json.Int t.k);
        ("after", Json.Int t.after);
        ("dirty_windows", Json.Int t.dirty_windows);
        ("dirty_observations", Json.Int t.observed);
        ( "stabilized_at",
          match t.state with Pending -> Json.Null | Stabilized at -> Json.Int at );
        ( "time_to_stabilize",
          match time_to_stabilize t with None -> Json.Null | Some v -> Json.Int v );
      ]
end
