type t = int

type system = { m : int }

let system ~m =
  if m < 4 then invalid_arg "Cyclic.system: m must be >= 4";
  { m }

let of_int sys x = ((x mod sys.m) + sys.m) mod sys.m

let initial = 0

let prec sys a b =
  let d = (b - a + sys.m) mod sys.m in
  d > 0 && d < (sys.m + 1) / 2

let dominates_all sys c inputs = List.for_all (fun l -> prec sys l c) inputs

let next sys inputs =
  match inputs with
  | [] -> 1
  | _ ->
      (* Try the successor of each input (the only sensible candidates);
         return the one dominating the most inputs, preferring full
         domination. *)
      let score c = List.length (List.filter (fun l -> prec sys l c) inputs) in
      let candidates = List.map (fun l -> (l + 1) mod sys.m) inputs in
      List.fold_left
        (fun best c -> if score c > score best then c else best)
        (List.hd candidates) candidates

let stuck sys inputs =
  inputs <> []
  && not (List.exists (fun c -> dominates_all sys c inputs) (List.init sys.m Fun.id))

let random sys rng = Sbft_sim.Rng.int rng sys.m

let size_bits sys =
  let rec bits n acc = if n <= 1 then acc else bits (n / 2) (acc + 1) in
  bits (sys.m - 1) 1
