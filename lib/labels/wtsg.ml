type witness = { server : int; value : int; ts : Mw_ts.t; rank : int }

type node = { value : int; ts : Mw_ts.t; weight : int }

module Key = struct
  type t = int * Mw_ts.t

  let compare (v1, t1) (v2, t2) =
    match Int.compare v1 v2 with 0 -> Mw_ts.compare t1 t2 | c -> c
end

module KMap = Map.Make (Key)
module IMap = Map.Make (Int)

type t = {
  nodes : node list; (* heaviest first *)
  ranks : int IMap.t KMap.t; (* node -> server -> best (smallest) rank *)
}

(* Heaviest first, then structural timestamp order, then value. *)
let order wa tsa va wb tsb vb =
  match Int.compare wb wa with
  | 0 -> ( match Mw_ts.compare tsa tsb with 0 -> Int.compare va vb | c -> c)
  | c -> c

let node_order a b = order a.weight a.ts a.value b.weight b.ts b.value

let build witnesses =
  (* Keep, per (value, ts) node and per server, the most recent (lowest)
     rank that server reported the pair at; the node's weight is its
     number of distinct witnessing servers. *)
  let ranks =
    List.fold_left
      (fun acc (w : witness) ->
        let key = (w.value, w.ts) in
        let per_server = Option.value ~default:IMap.empty (KMap.find_opt key acc) in
        let better =
          match IMap.find_opt w.server per_server with
          | Some r -> min r w.rank
          | None -> w.rank
        in
        KMap.add key (IMap.add w.server better per_server) acc)
      KMap.empty witnesses
  in
  let nodes =
    KMap.fold (fun (value, ts) per_server acc -> { value; ts; weight = IMap.cardinal per_server } :: acc)
      ranks []
    |> List.sort node_order
  in
  { nodes; ranks }

let nodes t = t.nodes

let node_count t = List.length t.nodes

let edges t =
  List.concat_map
    (fun a -> List.filter_map (fun b -> if Mw_ts.prec a.ts b.ts then Some (a, b) else None) t.nodes)
    t.nodes

let ranks_of t n = Option.value ~default:IMap.empty (KMap.find_opt (n.value, n.ts) t.ranks)

let newer t a b =
  let ra = ranks_of t a and rb = ranks_of t b in
  let a_newer = ref 0 and b_newer = ref 0 in
  IMap.iter
    (fun server rank_a ->
      match IMap.find_opt server rb with
      | Some rank_b -> if rank_a < rank_b then incr a_newer else if rank_b < rank_a then incr b_newer
      | None -> ())
    ra;
  !a_newer > !b_newer

let best t ~min_weight =
  let qualifying = List.filter (fun n -> n.weight >= min_weight) t.nodes in
  let undefeated =
    List.filter (fun n -> not (List.exists (fun n' -> newer t n' n) qualifying)) qualifying
  in
  let pool = match undefeated with [] -> qualifying | l -> l in
  (* Tie-breaks among vote-undefeated nodes: label ≺ maximality (sound
     for the consecutive-write pairs that typically remain), then the
     deterministic weight order. *)
  let maximal =
    List.filter (fun n -> not (List.exists (fun n' -> Mw_ts.prec n.ts n'.ts) pool)) pool
  in
  match maximal with
  | n :: _ -> Some n
  | [] -> ( match pool with n :: _ -> Some n | [] -> None)

(* The current-reply rule.  Server [s] reports the pair ⟨values.(s),
   stamps.(s)⟩ when [replied.(s)]; a node is named by the first server
   that reports it.  The helpers are top-level loops so that the rule
   allocates nothing but its answer. *)

(* Servers usually hold the very timestamp the writer sent, so physical
   equality settles most comparisons before the structural one. *)
let same_pair values stamps i j =
  values.(i) = values.(j) && (stamps.(i) == stamps.(j) || Mw_ts.compare stamps.(i) stamps.(j) = 0)

(* Servers from [j] on that report server [i]'s pair. *)
let rec weight_from replied values stamps i j =
  if j = Array.length replied then 0
  else
    (if replied.(j) && same_pair values stamps i j then 1 else 0)
    + weight_from replied values stamps i (j + 1)

(* A server before [i] reports server [i]'s pair. *)
let rec named_before replied values stamps i j =
  j < i && ((replied.(j) && same_pair values stamps i j) || named_before replied values stamps i (j + 1))

(* Some pair of weight at least [min_weight] reported from [j] on has a
   timestamp that server [i]'s precedes (≺ is irreflexive, so server
   [i]'s own timestamp is skipped unexamined). *)
let rec outranked replied values stamps ~min_weight i j =
  j < Array.length replied
  && (replied.(j)
      && stamps.(i) != stamps.(j)
      && Mw_ts.prec stamps.(i) stamps.(j)
      && weight_from replied values stamps j 0 >= min_weight
     || outranked replied values stamps ~min_weight i (j + 1))

(* Server [i]'s node, of weight [wi], comes before server [j]'s, of
   weight [wj], in node order; every node comes before none ([j] < 0). *)
let earlier values stamps i wi j wj =
  j < 0 || order wi stamps.(i) values.(i) wj stamps.(j) values.(j) < 0

let node_at values stamps i weight = Some { value = values.(i); ts = stamps.(i); weight }

let best_current ~replied ~values ~stamps ~min_weight =
  (* The first qualifying node in node order, and the first ≺-maximal
     one: server indices (-1 for none) and weights. *)
  let first = ref (-1) and first_w = ref 0 in
  let top = ref (-1) and top_w = ref 0 in
  for i = 0 to Array.length replied - 1 do
    if replied.(i) && not (named_before replied values stamps i 0) then begin
      let w = weight_from replied values stamps i 0 in
      if w >= min_weight then begin
        if earlier values stamps i w !first !first_w then begin
          first := i;
          first_w := w
        end;
        if earlier values stamps i w !top !top_w
           && not (outranked replied values stamps ~min_weight i 0)
        then begin
          top := i;
          top_w := w
        end
      end
    end
  done;
  if !top >= 0 then node_at values stamps !top !top_w
  else if !first >= 0 then node_at values stamps !first !first_w
  else None

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun n -> Format.fprintf fmt "%a = %d  (weight %d)@," Mw_ts.pp n.ts n.value n.weight)
    t.nodes;
  Format.fprintf fmt "@]"
