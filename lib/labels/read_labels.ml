(* [pending] is the paper's n x pool recent_labels matrix stored row by
   row, one byte per cell: byte [server * pool + label] is non-zero
   while that server may still process an operation so labeled. *)
type t = { servers : int; pool : int; pending : Bytes.t; mutable last : int }

let create ~servers ~pool =
  if pool < 2 then invalid_arg "Read_labels.create: pool must be >= 2";
  { servers; pool; pending = Bytes.make (servers * pool) '\000'; last = 0 }

let in_range t ~server ~label = server >= 0 && server < t.servers && label >= 0 && label < t.pool

let cell t ~server ~label = (server * t.pool) + label

let marked t ~server ~label = Bytes.get t.pending (cell t ~server ~label) <> '\000'

let pending_count t ~label =
  if label < 0 || label >= t.pool then 0
  else begin
    let c = ref 0 in
    for s = 0 to t.servers - 1 do
      if marked t ~server:s ~label then incr c
    done;
    !c
  end

let choose t =
  let best = ref (-1) and best_pending = ref max_int in
  for l = 0 to t.pool - 1 do
    if l <> t.last then begin
      let p = pending_count t ~label:l in
      if p < !best_pending then begin
        best := l;
        best_pending := p
      end
    end
  done;
  t.last <- !best;
  !best

let last t = t.last

let mark_pending t ~server ~label =
  if in_range t ~server ~label then Bytes.set t.pending (cell t ~server ~label) '\001'

let clear_pending t ~server ~label =
  if in_range t ~server ~label then Bytes.set t.pending (cell t ~server ~label) '\000'

let is_pending t ~server ~label = in_range t ~server ~label && marked t ~server ~label

(* One draw per cell in row order: the order of the draws is part of
   every corrupted run's schedule. *)
let corrupt t rng =
  let open Sbft_sim.Rng in
  t.last <- int_in rng (-1) (t.pool + 2);
  for i = 0 to Bytes.length t.pending - 1 do
    Bytes.set t.pending i (if bool rng then '\001' else '\000')
  done
