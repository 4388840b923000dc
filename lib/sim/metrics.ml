(* The float accumulators live in an all-float record, which OCaml
   stores flat: updating them boxes nothing. *)
type moments = { mutable sum : float; mutable lo : float; mutable hi : float }

type hist = {
  hcounts : int array; (* one per bound, then the overflow bucket *)
  mutable total : int;
  m : moments;
}

type hist_snapshot = {
  bounds : float array;
  counts : int array;
  count : int;
  sum : float;
  min : float;
  max : float;
}

(* Every histogram's upper bounds: geometric tick buckets 1, 2, 4, …
   2^19 cover everything a discrete-event run at delay ≤ tens of ticks
   can produce; the overflow bucket catches the rest. *)
let bounds = Array.init 20 (fun i -> Float.of_int (1 lsl i))

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

let hist t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
      let h =
        {
          hcounts = Array.make (Array.length bounds + 1) 0;
          total = 0;
          m = { sum = 0.0; lo = Float.infinity; hi = Float.neg_infinity };
        }
      in
      Hashtbl.add t.histograms name h;
      h

(* First bucket whose upper bound admits [v]: a linear scan over the
   20 bounds, typed so that each step is an unboxed comparison. *)
let bucket_of (v : float) =
  let n = Array.length bounds in
  let i = ref 0 in
  while !i < n && not (v <= bounds.(!i)) do
    i := !i + 1
  done;
  !i

let hist_record (h : hist) v =
  let b = bucket_of v in
  h.hcounts.(b) <- h.hcounts.(b) + 1;
  h.total <- h.total + 1;
  let m = h.m in
  m.sum <- m.sum +. v;
  if v < m.lo then m.lo <- v;
  if v > m.hi then m.hi <- v

let record t name v = hist_record (hist t name) v

let snapshot (h : hist) =
  {
    bounds = Array.copy bounds;
    counts = Array.copy h.hcounts;
    count = h.total;
    sum = h.m.sum;
    min = (if h.total = 0 then 0.0 else h.m.lo);
    max = (if h.total = 0 then 0.0 else h.m.hi);
  }

let histogram t name = Option.map snapshot (Hashtbl.find_opt t.histograms name)

let histograms t =
  Hashtbl.fold (fun k h acc -> (k, snapshot h) :: acc) t.histograms []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
