type system = { k : int; m : int }

type t = { sting : int; anti : int array }

let system ~k =
  if k < 2 then invalid_arg "Sbls.system: k must be >= 2";
  { k; m = (k * k) + 1 }

let initial sys = { sting = 0; anti = Array.init sys.k (fun i -> i + 1) }

(* A top-level loop: a local closure over [x] and [a] would be
   allocated on every call, and [prec] runs on every write request and
   in every ≺ check of the read decision. *)
let rec mem_from x a i = i < Array.length a && (a.(i) = x || mem_from x a (i + 1))

let mem x a = mem_from x a 0

let prec l1 l2 = mem l1.sting l2.anti && not (mem l2.sting l1.anti)

let equal l1 l2 = l1.sting = l2.sting && l1.anti = l2.anti

let compare l1 l2 =
  match Int.compare l1.sting l2.sting with 0 -> Stdlib.compare l1.anti l2.anti | c -> c

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

let next sys ls =
  (* Sting: the smallest universe element absent from every input
     antisting set.  Out-of-range antisting entries (corruption) cannot
     exclude an in-range candidate, so totality is preserved. *)
  let excluded = Hashtbl.create 64 in
  List.iter (fun l -> Array.iter (fun x -> Hashtbl.replace excluded x ()) l.anti) ls;
  let sting =
    let rec find c =
      if c >= sys.m then
        (* Only reachable on corrupted over-long input: fall back to the
           candidate excluded by the fewest sets. *)
        0
      else if Hashtbl.mem excluded c then find (c + 1)
      else c
    in
    find 0
  in
  (* Antistings: every input sting (so each input label precedes the
     result), padded with small fresh universe elements up to size k. *)
  let stings = dedup (List.map (fun l -> l.sting) ls) in
  let stings = List.filteri (fun i _ -> i < sys.k) stings in
  let present = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace present s ()) stings;
  let pad = ref [] in
  let needed = ref (sys.k - List.length stings) in
  let c = ref 0 in
  while !needed > 0 && !c < sys.m do
    if (not (Hashtbl.mem present !c)) && !c <> sting then begin
      pad := !c :: !pad;
      Hashtbl.replace present !c ();
      decr needed
    end;
    incr c
  done;
  let anti = Array.of_list (stings @ List.rev !pad) in
  Array.sort Int.compare anti;
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
