type system = { k : int; m : int }

type t = { sting : int; anti : int array }

let system ~k =
  if k < 2 then invalid_arg "Sbls.system: k must be >= 2";
  { k; m = (k * k) + 1 }

let initial sys = { sting = 0; anti = Array.init sys.k (fun i -> i + 1) }

(* A top-level loop: a local closure over [x] and [a] would be
   allocated on every call, and [prec] runs on every write request and
   in every ≺ check of the read decision. *)
let rec mem_from (x : int) a i = i < Array.length a && (a.(i) = x || mem_from x a (i + 1))

let mem x a = mem_from x a 0

let prec l1 l2 = mem l1.sting l2.anti && not (mem l2.sting l1.anti)

(* Antisting equality and order without polymorphic comparison's C
   call.  [equal] runs on every write ack and in witness-table lookups.
   The order is the one polymorphic comparison gives arrays, length
   first and then elements, which [Wtsg.best]'s tie-break relies on. *)
let rec equal_from (a : int array) b i = i = Array.length a || (a.(i) = b.(i) && equal_from a b (i + 1))

let equal l1 l2 =
  l1.sting = l2.sting
  && (l1.anti == l2.anti
     || (Array.length l1.anti = Array.length l2.anti && equal_from l1.anti l2.anti 0))

let rec compare_from a b i =
  if i = Array.length a then 0
  else match Int.compare a.(i) b.(i) with 0 -> compare_from a b (i + 1) | c -> c

let compare l1 l2 =
  match Int.compare l1.sting l2.sting with
  | 0 -> (
      match Int.compare (Array.length l1.anti) (Array.length l2.anti) with
      | 0 -> compare_from l1.anti l2.anti 0
      | c -> c)
  | c -> c

(* Distinct values of [xs], keeping first occurrences, as a list. *)
let dedup xs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun x ->
      if Hashtbl.mem seen x then false
      else begin
        Hashtbl.add seen x ();
        true
      end)
    xs

(* [next] runs on every write, so it allocates only its result and one
   byte of marks per universe element; the helpers are top-level for the
   same reason as [mem_from]. *)
let marked marks x = x >= 0 && x < Bytes.length marks && Bytes.unsafe_get marks x <> '\000'

let mark marks x = if x >= 0 && x < Bytes.length marks then Bytes.unsafe_set marks x '\001'

let rec mark_antistings marks = function
  | [] -> ()
  | l :: rest ->
      for i = 0 to Array.length l.anti - 1 do
        mark marks l.anti.(i)
      done;
      mark_antistings marks rest

(* The smallest unmarked universe element, or 0 when every one is
   marked. *)
let rec first_free marks c =
  if c >= Bytes.length marks then 0 else if marked marks c then first_free marks (c + 1) else c

(* [anti.(0 .. len - 1)] holds [x]: the duplicate check for stings
   outside the universe, which have no mark. *)
let rec holds anti len (x : int) i = i < len && (anti.(i) = x || holds anti len x (i + 1))

(* Appends the distinct stings of [ls] to [anti] from index [len], in
   input order, until [anti] is full; returns the new length. *)
let rec add_stings marks anti len = function
  | l :: rest when len < Array.length anti ->
      let s = l.sting in
      let dup = if s >= 0 && s < Bytes.length marks then marked marks s else holds anti len s 0 in
      if dup then add_stings marks anti len rest
      else begin
        anti.(len) <- s;
        mark marks s;
        add_stings marks anti (len + 1) rest
      end
  | _ -> len

(* Fills [anti] from index [len] with the unmarked universe elements
   from [c] up, skipping [sting].  The universe always has enough:
   at most k stings are marked, and m - k - 1 >= k. *)
let rec pad marks anti ~sting len c =
  if len < Array.length anti then
    if marked marks c || c = sting then pad marks anti ~sting len (c + 1)
    else begin
      anti.(len) <- c;
      pad marks anti ~sting (len + 1) (c + 1)
    end

let next sys ls =
  let marks = Bytes.make sys.m '\000' in
  (* Sting: the smallest universe element absent from every input
     antisting set.  Out-of-range antisting entries (corruption) cannot
     exclude an in-range candidate.  When the input antistings cover the
     whole universe, which takes corrupted or over-long input, the sting
     falls back to 0. *)
  mark_antistings marks ls;
  let sting = first_free marks 0 in
  (* Antistings: the first k distinct input stings, so each input label
     precedes the result, padded with the smallest universe elements
     that are neither one of them nor the sting.  Input stings are
     copied as they are, out-of-range ones included. *)
  Bytes.fill marks 0 sys.m '\000';
  let anti = Array.make sys.k 0 in
  pad marks anti ~sting (add_stings marks anti 0 ls) 0;
  (* Insertion sort of k distinct entries. *)
  for i = 1 to sys.k - 1 do
    let x = anti.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && anti.(!j) > x do
      anti.(!j + 1) <- anti.(!j);
      decr j
    done;
    anti.(!j + 1) <- x
  done;
  { sting; anti }

let valid sys l =
  l.sting >= 0
  && l.sting < sys.m
  && Array.length l.anti = sys.k
  &&
  let ok = ref true in
  Array.iteri
    (fun i x ->
      if x < 0 || x >= sys.m then ok := false;
      if i > 0 && l.anti.(i - 1) >= x then ok := false)
    l.anti;
  !ok

let canonicalize sys l =
  if valid sys l then l
  else begin
    let sting = ((l.sting mod sys.m) + sys.m) mod sys.m in
    let in_range = Array.to_list l.anti |> List.filter (fun x -> x >= 0 && x < sys.m) in
    let xs = dedup in_range in
    let xs = List.filteri (fun i _ -> i < sys.k) xs in
    let present = Hashtbl.create 16 in
    List.iter (fun x -> Hashtbl.replace present x ()) xs;
    let pad = ref [] in
    let needed = ref (sys.k - List.length xs) in
    let c = ref 0 in
    while !needed > 0 && !c < sys.m do
      if (not (Hashtbl.mem present !c)) && !c <> sting then begin
        pad := !c :: !pad;
        decr needed
      end;
      incr c
    done;
    let anti = Array.of_list (xs @ List.rev !pad) in
    Array.sort Int.compare anti;
    { sting; anti }
  end

let random sys rng =
  let sting = Sbft_sim.Rng.int rng sys.m in
  (* Random k-subset of the universe by partial Fisher-Yates. *)
  let pool = Array.init sys.m (fun i -> i) in
  Sbft_sim.Rng.shuffle rng pool;
  let anti = Array.sub pool 0 sys.k in
  Array.sort Int.compare anti;
  { sting; anti }

let random_garbage sys rng =
  let open Sbft_sim.Rng in
  let sting = int_in rng (-sys.m) (2 * sys.m) in
  let len = int rng (2 * sys.k) in
  let anti = Array.init len (fun _ -> int_in rng (-sys.m) (2 * sys.m)) in
  { sting; anti }

let size_bits sys =
  let rec bits n acc = if n <= 1 then acc else bits (n / 2) (acc + 1) in
  bits (sys.m - 1) 1 * (sys.k + 1)

let pp fmt l =
  Format.fprintf fmt "(%d|%a)" l.sting
    (Format.pp_print_array ~pp_sep:(fun f () -> Format.pp_print_char f ',') Format.pp_print_int)
    l.anti

let to_string l = Format.asprintf "%a" pp l
