type witness = { server : int; value : int; ts : Mw_ts.t; rank : int }

type node = { value : int; ts : Mw_ts.t; weight : int }

(* A distinct ⟨value, ts⟩ pair: its weight and each server's best
   (lowest) rank for it, [absent] where the server is silent. *)
type row = {
  mutable value : int;
  mutable ts : Mw_ts.t;
  mutable weight : int;
  mutable ranks : int array;
}

(* The first [used] rows, in order of first report, over servers
   [0 .. cols - 1].  Rows are reused once allocated, and [best] keeps
   its working state here too, so that a decision on a reused table
   allocates only its answer unless the vote cycles. *)
type t = {
  mutable cols : int;
  mutable used : int;
  mutable rows : row array;
  mutable order : row array; (* best: the qualifying rows in node order, *)
  mutable pool : bool array; (* and which of them it may return *)
}

let absent = max_int

let no_ts = { Mw_ts.label = { Sbls.sting = 0; anti = [||] }; writer = 0 }

let blank _ = { value = 0; ts = no_ts; weight = 0; ranks = [||] }

let create ~servers =
  let rows = Array.init 8 blank in
  { cols = servers; used = 0; rows; order = Array.copy rows; pool = Array.make 8 false }

(* The row holding ⟨value, ts⟩ from row [i] on, else a fresh one.
   Servers usually hold the very timestamp the writer sent, so physical
   equality settles most comparisons before the structural one. *)
let rec intern t value ts i =
  if i = t.used then begin
    if i = Array.length t.rows then begin
      t.rows <- Array.append t.rows (Array.init i blank);
      t.order <- Array.append t.order t.order;
      t.pool <- Array.append t.pool t.pool
    end;
    let r = t.rows.(i) in
    t.used <- i + 1;
    r.value <- value;
    r.ts <- ts;
    r.weight <- 0;
    if Array.length r.ranks < t.cols then r.ranks <- Array.make t.cols absent
    else Array.fill r.ranks 0 t.cols absent;
    r
  end
  else
    let r = t.rows.(i) in
    if r.value = value && (r.ts == ts || Mw_ts.equal r.ts ts) then r else intern t value ts (i + 1)

let add t ~server ~value ~ts ~rank =
  if server < 0 || server >= t.cols then invalid_arg "Wtsg.add: server out of range";
  let r = intern t value ts 0 in
  if r.ranks.(server) = absent then r.weight <- r.weight + 1;
  if rank < r.ranks.(server) then r.ranks.(server) <- rank

let build witnesses =
  let servers = List.fold_left (fun m (w : witness) -> max m (w.server + 1)) 0 witnesses in
  let t = create ~servers in
  List.iter (fun (w : witness) -> add t ~server:w.server ~value:w.value ~ts:w.ts ~rank:w.rank) witnesses;
  t

let per_domain = Domain.DLS.new_key (fun () -> create ~servers:0)

let local ~servers =
  let t = Domain.DLS.get per_domain in
  t.cols <- servers;
  t.used <- 0;
  t

(* Node order: heaviest first, then structural timestamp order, then
   value. *)
let before a b =
  match Int.compare b.weight a.weight with
  | 0 -> ( match Mw_ts.compare a.ts b.ts with 0 -> a.value < b.value | c -> c < 0)
  | c -> c < 0

(* The servers that rank both rows place [a] more recently than [b] by
   strict majority. *)
let beats t a b =
  let margin = ref 0 in
  for s = 0 to t.cols - 1 do
    let ra = a.ranks.(s) and rb = b.ranks.(s) in
    if ra <> absent && rb <> absent then
      if ra < rb then incr margin else if rb < ra then decr margin
  done;
  !margin > 0

let node (r : row) : node = { value = r.value; ts = r.ts; weight = r.weight }

let used_rows t = Array.to_list (Array.sub t.rows 0 t.used)

let nodes t =
  List.map node (List.sort (fun a b -> if a == b then 0 else if before a b then -1 else 1) (used_rows t))

let newer t (a : node) (b : node) =
  let row (n : node) =
    List.find_opt (fun r -> r.value = n.value && Mw_ts.equal r.ts n.ts) (used_rows t)
  in
  match (row a, row b) with Some a, Some b -> beats t a b | _ -> false

(* Over [order.(0 .. q - 1)]: some qualifying row beats the [x]-th. *)
let rec beaten t q x y = y < q && (beats t t.order.(y) t.order.(x) || beaten t q x (y + 1))

(* The [x]-th qualifying row's timestamp precedes that of one in the
   pool from the [y]-th on. *)
let rec outranked t q x y =
  y < q && ((t.pool.(y) && Mw_ts.prec t.order.(x).ts t.order.(y).ts) || outranked t q x (y + 1))

(* The vote's top cycle: the rows [x] that beat, through a chain of
   wins, every row that beats [x] through one.  A transitive closure
   over the [q] qualifying rows, taken only when no row is undefeated. *)
let top_cycle t q =
  let wins = Array.init q (fun x -> Array.init q (fun y -> beats t t.order.(x) t.order.(y))) in
  for z = 0 to q - 1 do
    for x = 0 to q - 1 do
      if wins.(x).(z) then for y = 0 to q - 1 do if wins.(z).(y) then wins.(x).(y) <- true done
    done
  done;
  for x = 0 to q - 1 do
    t.pool.(x) <- List.for_all (fun y -> wins.(x).(y) || not wins.(y).(x)) (List.init q Fun.id)
  done

let best t ~min_weight =
  (* The qualifying rows, sorted into node order by insertion. *)
  let q = ref 0 in
  for i = 0 to t.used - 1 do
    let r = t.rows.(i) in
    if r.weight >= min_weight then begin
      let j = ref !q in
      while !j > 0 && before r t.order.(!j - 1) do
        t.order.(!j) <- t.order.(!j - 1);
        decr j
      done;
      t.order.(!j) <- r;
      incr q
    end
  done;
  let q = !q and undefeated = ref false in
  for x = 0 to q - 1 do
    t.pool.(x) <- not (beaten t q x 0);
    undefeated := !undefeated || t.pool.(x)
  done;
  (* A cycle in the vote leaves no row undefeated: keep its top cycle. *)
  if q > 0 && not !undefeated then top_cycle t q;
  (* Tie-breaks within the pool: the first ≺-maximal row (≺ is sound for
     the consecutive-write pairs that typically remain), else the first. *)
  let first = ref (-1) and maximal = ref (-1) in
  for x = q - 1 downto 0 do
    if t.pool.(x) then begin
      first := x;
      if not (outranked t q x 0) then maximal := x
    end
  done;
  match if !maximal >= 0 then !maximal else !first with -1 -> None | x -> Some (node t.order.(x))
