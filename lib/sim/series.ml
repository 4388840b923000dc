(* Bounded-memory streaming time series.

   Everything here is O(1) memory in the length of the run: a window
   aggregate is four scalars, a series keeps one open window, a ring
   of the last [keep] closed windows and one all-time rollup, and the
   stabilization detector is three integers of state.  All of it feeds off the
   virtual clock and op completions only — never the trace — so every
   number is bit-identical across trace levels and under replay. *)

(* ------------------------------------------------------------------ *)
(* One window's aggregate. *)

module Agg = struct
  type t = { mutable count : int; mutable sum : float; mutable min : float; mutable max : float }

  let empty () = { count = 0; sum = 0.0; min = Float.infinity; max = Float.neg_infinity }

  let is_empty a = a.count = 0

  let observe a v =
    a.count <- a.count + 1;
    a.sum <- a.sum +. v;
    if v < a.min then a.min <- v;
    if v > a.max then a.max <- v

  let mean a = if a.count = 0 then 0.0 else a.sum /. float_of_int a.count

  let min a = if a.count = 0 then 0.0 else a.min

  let max a = if a.count = 0 then 0.0 else a.max

  (* Associative, commutative and exact: merging per-shard windows into
     a fleet window loses nothing. *)
  let merge a b =
    {
      count = a.count + b.count;
      sum = a.sum +. b.sum;
      min = Float.min a.min b.min;
      max = Float.max a.max b.max;
    }

  let to_json a =
    Json.Obj
      [
        ("count", Json.Int a.count);
        ("sum", Json.Float a.sum);
        ("mean", Json.Float (mean a));
        ("min", Json.Float (min a));
        ("max", Json.Float (max a));
      ]
end

(* ------------------------------------------------------------------ *)
(* Tumbling-window series: one open window, a ring of the last [keep]
   closed ones, an all-time rollup.  Windows close lazily as later
   observations (or an explicit [roll_to]) arrive. *)

type t = {
  name : string;
  window : int;
  keep : int;
  mutable cur_index : int;  (* window index of the open window *)
  mutable cur : Agg.t;
  ring : Agg.t option array;  (* slot i holds window (index mod keep) *)
  ring_index : int array;  (* which window index occupies each slot *)
  total : Agg.t;
  mutable closed : int;  (* windows closed so far (including empty) *)
}

let create ?(keep = 64) ~window ~name () =
  if window <= 0 then invalid_arg "Series.create: window must be positive";
  let keep = max 1 keep in
  {
    name;
    window;
    keep;
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
  Agg.observe t.cur v;
  Agg.observe t.total v

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
  let column f = Json.List (List.map (fun (_, a) -> f a) recent) in
  Json.Obj
    [
      ("name", Json.String t.name);
      ("window", Json.Int t.window);
      ("windows_closed", Json.Int t.closed);
      ("t", Json.List (List.map (fun (idx, _) -> Json.Int (idx * t.window)) recent));
      ("count", column (fun a -> Json.Int a.Agg.count));
      ("sum", column (fun a -> Json.Float a.Agg.sum));
      ("mean", column (fun a -> Json.Float (Agg.mean a)));
      ("max", column (fun a -> Json.Float (Agg.max a)));
      ("total", Agg.to_json t.total);
    ]

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
