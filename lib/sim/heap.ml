(* Parallel-array layout: keys live in two plain [int array]s so sift
   comparisons never touch a payload (no pointer chasing, no boxed
   records), and payloads live in an ['a option array] so a vacated
   slot can be overwritten with [None].  The previous record-array
   layout left popped entries live in the backing store — every
   delivered message/closure stayed reachable for the lifetime of the
   heap, which in a long fuzz campaign pinned an unbounded amount of
   retired simulation state. *)
type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable payloads : 'a option array;
  mutable len : int;
}

let create () = { times = [||]; seqs = [||]; payloads = [||]; len = 0 }

let size t = t.len

let lt t i j =
  t.times.(i) < t.times.(j) || (t.times.(i) = t.times.(j) && t.seqs.(i) < t.seqs.(j))

let swap t i j =
  let tt = t.times.(i) in
  t.times.(i) <- t.times.(j);
  t.times.(j) <- tt;
  let ts = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- ts;
  let tp = t.payloads.(i) in
  t.payloads.(i) <- t.payloads.(j);
  t.payloads.(j) <- tp

let grow t =
  let cap = Array.length t.times in
  if t.len = cap then begin
    let ncap = max 16 (2 * cap) in
    let nt = Array.make ncap 0 and ns = Array.make ncap 0 and np = Array.make ncap None in
    Array.blit t.times 0 nt 0 t.len;
    Array.blit t.seqs 0 ns 0 t.len;
    Array.blit t.payloads 0 np 0 t.len;
    t.times <- nt;
    t.seqs <- ns;
    t.payloads <- np
  end

let push t ~time ~seq payload =
  grow t;
  t.times.(t.len) <- time;
  t.seqs.(t.len) <- seq;
  t.payloads.(t.len) <- Some payload;
  t.len <- t.len + 1;
  (* Sift up. *)
  let i = ref (t.len - 1) in
  while !i > 0 && lt t !i ((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    swap t !i p;
    i := p
  done

(* The engine's inner loop runs one of these per event, after
   [min_time] has checked emptiness: no option or tuple is built. *)
let take t =
  if t.len = 0 then invalid_arg "Heap.take: empty";
  let payload = match t.payloads.(0) with Some p -> p | None -> assert false in
  t.len <- t.len - 1;
  t.times.(0) <- t.times.(t.len);
  t.seqs.(0) <- t.seqs.(t.len);
  t.payloads.(0) <- t.payloads.(t.len);
  (* Release the vacated slot — the payload must not outlive the pop. *)
  t.payloads.(t.len) <- None;
  if t.len > 0 then begin
    (* Sift down. *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < t.len && lt t l !smallest then smallest := l;
      if r < t.len && lt t r !smallest then smallest := r;
      if !smallest <> !i then begin
        swap t !i !smallest;
        i := !smallest
      end
      else continue := false
    done
  end;
  payload

let no_event = max_int

let min_time t = if t.len = 0 then no_event else t.times.(0)

let min_seq t = t.seqs.(0)
