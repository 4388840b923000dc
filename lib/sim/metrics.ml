type hist = {
  bounds : float array; (* strictly increasing upper bounds; overflow bucket implicit *)
  hcounts : int array; (* length = Array.length bounds + 1 *)
  mutable total : int;
  mutable sum : float;
  mutable hmin : float;
  mutable hmax : float;
  hq : Series.Quantile.t;
      (* streaming digest alongside the buckets: where a percentile
         saturates against the last bound, the digest still has an
         estimate (rank error ~1/cap instead of a clamp) *)
}

type hist_snapshot = {
  bounds : float array;
  counts : int array;
  count : int;
  sum : float;
  min : float;
  max : float;
  stream : Series.Quantile.t option;
}

(* Geometric tick buckets: 1, 2, 4, … 2^19 cover everything a
   discrete-event run at delay ≤ tens of ticks can produce; the
   overflow bucket catches the rest. *)
let default_bounds = Array.init 20 (fun i -> Float.of_int (1 lsl i))

type t = { counters : (string, int ref) Hashtbl.t; histograms : (string, hist) Hashtbl.t }

let create () = { counters = Hashtbl.create 32; histograms = Hashtbl.create 8 }

let slot t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t.counters name r;
      r

let incr t name = incr (slot t name)

type counter = int ref

let counter t name = slot t name
let counter_incr (c : counter) = Stdlib.incr c

let add t name v =
  let r = slot t name in
  r := !r + v

let get t name = match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let hist_slot t ?(bounds = default_bounds) name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
      let h =
        {
          bounds;
          hcounts = Array.make (Array.length bounds + 1) 0;
          total = 0;
          sum = 0.0;
          hmin = Float.infinity;
          hmax = Float.neg_infinity;
          hq = Series.Quantile.create ();
        }
      in
      Hashtbl.add t.histograms name h;
      h

let bucket_of bounds v =
  (* First bucket whose upper bound admits v; linear scan is fine for
     ~20 buckets and keeps the hot path allocation-free. *)
  let n = Array.length bounds in
  let rec go i = if i >= n then n else if v <= bounds.(i) then i else go (i + 1) in
  go 0

let hist ?bounds t name = hist_slot t ?bounds name

let hist_record (h : hist) v =
  let b = bucket_of h.bounds v in
  h.hcounts.(b) <- h.hcounts.(b) + 1;
  h.total <- h.total + 1;
  h.sum <- h.sum +. v;
  if v < h.hmin then h.hmin <- v;
  if v > h.hmax then h.hmax <- v;
  Series.Quantile.add h.hq v

let record ?bounds t name v = hist_record (hist_slot t ?bounds name) v

let snapshot (h : hist) =
  {
    bounds = Array.copy h.bounds;
    counts = Array.copy h.hcounts;
    count = h.total;
    sum = h.sum;
    min = (if h.total = 0 then 0.0 else h.hmin);
    max = (if h.total = 0 then 0.0 else h.hmax);
    (* merge-with-empty yields a fresh compressed copy, so the snapshot
       stays immutable while the live digest keeps growing *)
    stream =
      (if h.total = 0 then None
       else Some (Series.Quantile.merge h.hq (Series.Quantile.create ())));
  }

let histogram t name = Option.map snapshot (Hashtbl.find_opt t.histograms name)

let histograms t =
  Hashtbl.fold (fun k h acc -> (k, snapshot h) :: acc) t.histograms []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
