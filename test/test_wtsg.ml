(* Tests for the Weighted Timestamp Graph (Definition 3) and the read
   decision rule built on it. *)

open Sbft_labels

let sys = Sbls.system ~k:6

let ts_chain n =
  (* n timestamps where each dominates the previous (consecutive writes). *)
  let rec go acc l i =
    if i = 0 then List.rev acc
    else
      let l' = Sbls.next sys [ l ] in
      go (Mw_ts.make ~label:l' ~writer:0 :: acc) l' (i - 1)
  in
  go [ Mw_ts.initial sys ] (Sbls.initial sys) (n - 1)

let w ?(rank = 0) server value ts = { Wtsg.server; value; ts; rank }

let test_weights () =
  let ts = List.hd (ts_chain 1) in
  let g = Wtsg.build [ w 0 5 ts; w 1 5 ts; w 2 5 ts; w 3 6 ts ] in
  Alcotest.(check int) "two nodes" 2 (List.length (Wtsg.nodes g));
  match Wtsg.nodes g with
  | [ a; b ] ->
      Alcotest.(check int) "heaviest first" 3 a.weight;
      Alcotest.(check int) "value of heavy node" 5 a.value;
      Alcotest.(check int) "light node" 1 b.weight
  | _ -> Alcotest.fail "expected two nodes"

let test_per_server_dedup () =
  (* A Byzantine server repeating the same pair inflates nothing. *)
  let ts = List.hd (ts_chain 1) in
  let g = Wtsg.build [ w 0 5 ts; w ~rank:1 0 5 ts; w ~rank:2 0 5 ts ] in
  match Wtsg.nodes g with
  | [ n ] -> Alcotest.(check int) "weight 1 despite repeats" 1 n.weight
  | _ -> Alcotest.fail "expected one node"

let test_best_threshold () =
  let ts = List.hd (ts_chain 1) in
  let g = Wtsg.build [ w 0 5 ts; w 1 5 ts ] in
  Alcotest.(check bool) "below threshold -> none" true (Wtsg.best g ~min_weight:3 = None);
  Alcotest.(check bool) "at threshold -> some" true (Wtsg.best g ~min_weight:2 <> None)

let test_best_prefers_newer_label () =
  (* Two qualifying nodes from consecutive writes: the later write wins. *)
  match ts_chain 2 with
  | [ old_ts; new_ts ] ->
      let g =
        Wtsg.build
          [ w 0 1 old_ts; w 1 1 old_ts; w 2 1 old_ts; w 3 2 new_ts; w 4 2 new_ts; w 5 2 new_ts ]
      in
      (match Wtsg.best g ~min_weight:3 with
      | Some n -> Alcotest.(check int) "newest qualifying value" 2 n.value
      | None -> Alcotest.fail "expected a node")
  | _ -> Alcotest.fail "chain"

let test_best_recency_vote () =
  (* Union-graph situation: every server witnesses both pairs, listing
     value 2 as more recent (rank 0) than value 1 (rank 1).  The label
     relation is made useless on purpose by picking timestamps of
     distant generations; the per-server recency vote must decide. *)
  let chain = ts_chain 12 in
  let old_ts = List.nth chain 2 and new_ts = List.nth chain 11 in
  let witnesses =
    List.concat_map
      (fun s -> [ w ~rank:0 s 2 new_ts; w ~rank:1 s 1 old_ts ])
      [ 0; 1; 2; 3; 4 ]
  in
  let g = Wtsg.build witnesses in
  match Wtsg.best g ~min_weight:3 with
  | Some n -> Alcotest.(check int) "recency vote picks the newer pair" 2 n.value
  | None -> Alcotest.fail "expected a node"

let test_vote_outvotes_byzantine () =
  (* One lying server ranks the old pair as current; four correct
     servers say otherwise. *)
  match ts_chain 2 with
  | [ old_ts; new_ts ] ->
      let liar = [ w ~rank:0 9 1 old_ts; w ~rank:1 9 2 new_ts ] in
      let honest =
        List.concat_map (fun s -> [ w ~rank:0 s 2 new_ts; w ~rank:1 s 1 old_ts ]) [ 0; 1; 2; 3 ]
      in
      let g = Wtsg.build (liar @ honest) in
      (match Wtsg.best g ~min_weight:3 with
      | Some n -> Alcotest.(check int) "majority beats the liar" 2 n.value
      | None -> Alcotest.fail "expected a node")
  | _ -> Alcotest.fail "chain"

let test_newer_relation () =
  match ts_chain 2 with
  | [ old_ts; new_ts ] ->
      let g =
        Wtsg.build
          (List.concat_map (fun s -> [ w ~rank:0 s 2 new_ts; w ~rank:1 s 1 old_ts ]) [ 0; 1; 2 ])
      in
      let find v = List.find (fun (n : Wtsg.node) -> n.value = v) (Wtsg.nodes g) in
      Alcotest.(check bool) "2 newer than 1" true (Wtsg.newer g (find 2) (find 1));
      Alcotest.(check bool) "1 not newer than 2" false (Wtsg.newer g (find 1) (find 2))
  | _ -> Alcotest.fail "chain"

(* The union graph of a fault-free stale read (the benchmark's
   kv-steady workload at seed 5, key-1, read 1645): three concurrent
   writes, 5426 (which retried), 5431 and 5434, reached the servers in
   different orders, so the recency vote cycles: 5431 beats 5426, 5426
   beats 5434, 5434 beats 5431.  Labels of a hot key cycle with period 4
   (C ≺ B ≺ A ≺ D ≺ C), so ≺ cannot settle it either.  Falling back to
   every qualifying node returned 5405.  Each report is value
   label@writer, current pair first. *)
let label_a = { Sbls.sting = 6; anti = [| 0; 1; 2; 3; 4; 6 |] }
let label_b = { Sbls.sting = 6; anti = [| 0; 1; 2; 3; 4; 5 |] }
let label_c = { Sbls.sting = 5; anti = [| 0; 1; 2; 3; 4; 5 |] }
let label_d = { Sbls.sting = 5; anti = [| 0; 1; 2; 3; 4; 6 |] }

let vote_cycle_witnesses () =
  let a = label_a and b = label_b and c = label_c and d = label_d in
  let p value l writer = (value, Mw_ts.make ~label:l ~writer) in
  let report server pairs = List.mapi (fun rank (value, ts) -> w ~rank server value ts) pairs in
  List.concat
    [
      report 3
        [ p 5431 a 34; p 5426 a 25; p 5426 b 25; p 5422 b 57; p 5405 c 61; p 5388 d 24; p 5373 a 66 ];
      report 1
        [ p 5426 a 25; p 5434 a 38; p 5431 a 34; p 5426 b 25; p 5422 b 57; p 5405 c 61; p 5388 d 24 ];
      report 4
        [ p 5436 a 46; p 5431 a 34; p 5426 b 25; p 5422 b 57; p 5405 c 61; p 5388 d 24; p 5373 a 66 ];
      report 2
        [ p 5434 a 38; p 5431 a 34; p 5426 b 25; p 5422 b 57; p 5405 c 61; p 5388 d 24; p 5373 a 66 ];
      report 0
        [ p 5431 a 34; p 5426 a 25; p 5434 a 38; p 5426 b 25; p 5422 b 57; p 5405 c 61; p 5388 d 24 ];
    ]

let test_vote_cycle () =
  let g = Wtsg.build (vote_cycle_witnesses ()) in
  let find value label writer =
    List.find
      (fun (n : Wtsg.node) -> n.value = value && Mw_ts.equal n.ts (Mw_ts.make ~label ~writer))
      (Wtsg.nodes g)
  in
  let n5431 = find 5431 label_a 34 and n5426 = find 5426 label_a 25 in
  let n5434 = find 5434 label_a 38 in
  Alcotest.(check bool) "5431 beats 5426" true (Wtsg.newer g n5431 n5426);
  Alcotest.(check bool) "5426 beats 5434" true (Wtsg.newer g n5426 n5434);
  Alcotest.(check bool) "5434 beats 5431" true (Wtsg.newer g n5434 n5431);
  (* Every witness of both places 5405 older than 5422, which completed
     before the read began. *)
  let n5422 = find 5422 label_b 57 and n5405 = find 5405 label_c 61 in
  Alcotest.(check bool) "5422 beats 5405" true (Wtsg.newer g n5422 n5405);
  match Wtsg.best g ~min_weight:3 with
  | Some n ->
      Alcotest.(check bool) "not 5405, which every shared witness places older than 5422" false
        (n = n5405);
      Alcotest.(check bool)
        (Printf.sprintf "%d %s is in the top cycle {5431, 5426 A, 5434}" n.value
           (Mw_ts.to_string n.ts))
        true
        (List.mem n [ n5431; n5426; n5434 ])
  | None -> Alcotest.fail "expected a node"

let test_empty () =
  let g = Wtsg.build [] in
  Alcotest.(check int) "no nodes" 0 (List.length (Wtsg.nodes g));
  Alcotest.(check bool) "no best" true (Wtsg.best g ~min_weight:1 = None)

let qcheck_weight_bounded_by_servers =
  QCheck.Test.make ~name:"wtsg: node weight <= distinct servers" ~count:500
    QCheck.(small_list (triple (int_bound 5) (int_bound 3) (int_bound 2)))
    (fun triples ->
      let chain = ts_chain 4 in
      let witnesses =
        List.map (fun (s, v, t) -> w ~rank:0 s v (List.nth chain t)) triples
      in
      let servers = List.sort_uniq Int.compare (List.map (fun (s, _, _) -> s) triples) in
      let g = Wtsg.build witnesses in
      List.for_all (fun (n : Wtsg.node) -> n.weight <= List.length servers) (Wtsg.nodes g))

(* The read decision as it stood over maps: the reference the witness
   table must equal, fallback to the vote's top cycle included. *)
module Ref = struct
  module Key = struct
    type t = int * Mw_ts.t

    let compare (v1, t1) (v2, t2) = match Int.compare v1 v2 with 0 -> Mw_ts.compare t1 t2 | c -> c
  end

  module KMap = Map.Make (Key)
  module IMap = Map.Make (Int)

  type t = { nodes : Wtsg.node list; ranks : int IMap.t KMap.t }

  let node_order (a : Wtsg.node) (b : Wtsg.node) =
    match Int.compare b.weight a.weight with
    | 0 -> ( match Mw_ts.compare a.ts b.ts with 0 -> Int.compare a.value b.value | c -> c)
    | c -> c

  let build witnesses =
    let ranks =
      List.fold_left
        (fun acc (w : Wtsg.witness) ->
          let key = (w.value, w.ts) in
          let per_server = Option.value ~default:IMap.empty (KMap.find_opt key acc) in
          let better =
            match IMap.find_opt w.server per_server with Some r -> min r w.rank | None -> w.rank
          in
          KMap.add key (IMap.add w.server better per_server) acc)
        KMap.empty witnesses
    in
    let nodes =
      KMap.fold
        (fun (value, ts) per_server acc -> { Wtsg.value; ts; weight = IMap.cardinal per_server } :: acc)
        ranks []
      |> List.sort node_order
    in
    { nodes; ranks }

  let ranks_of t (n : Wtsg.node) = Option.value ~default:IMap.empty (KMap.find_opt (n.value, n.ts) t.ranks)

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

  let top_cycle t qualifying =
    let a = Array.of_list qualifying in
    let q = Array.length a in
    let wins = Array.init q (fun i -> Array.init q (fun j -> newer t a.(i) a.(j))) in
    for k = 0 to q - 1 do
      for i = 0 to q - 1 do
        if wins.(i).(k) then for j = 0 to q - 1 do if wins.(k).(j) then wins.(i).(j) <- true done
      done
    done;
    let ys = List.init q Fun.id in
    List.filteri (fun x _ -> List.for_all (fun y -> (not wins.(y).(x)) || wins.(x).(y)) ys) qualifying

  let best t ~min_weight =
    let qualifying = List.filter (fun (n : Wtsg.node) -> n.weight >= min_weight) t.nodes in
    let undefeated =
      List.filter (fun n -> not (List.exists (fun n' -> newer t n' n) qualifying)) qualifying
    in
    let pool = match undefeated with [] when qualifying <> [] -> top_cycle t qualifying | l -> l in
    let maximal =
      List.filter
        (fun (n : Wtsg.node) -> not (List.exists (fun (n' : Wtsg.node) -> Mw_ts.prec n.ts n'.ts) pool))
        pool
    in
    match maximal with n :: _ -> Some n | [] -> ( match pool with n :: _ -> Some n | [] -> None)
end

let same_node (a : Wtsg.node) (b : Wtsg.node) =
  a.value = b.value && Mw_ts.compare a.ts b.ts = 0 && a.weight = b.weight

let same_answer a b =
  match (a, b) with None, None -> true | Some a, Some b -> same_node a b | _ -> false

(* A random union witness set from [seed]: n <= 12 servers, each silent
   or reporting up to [depth + 1] <= 8 ranks, pairs drawn from a small
   pool so that they repeat across and within reports, timestamps from
   a ≺-chain, random valid ones and garbage.  A quarter of the sets are
   rank-0 only, as the current-reply decision sees them. *)
let chain = lazy (Array.of_list (ts_chain 8))

let union_set r =
  let n = 1 + Sbft_sim.Rng.int r 12 in
  let depth = if Sbft_sim.Rng.int r 4 = 0 then 0 else Sbft_sim.Rng.int r 8 in
  let stamp () =
    match Sbft_sim.Rng.int r 3 with
    | 0 -> Sbft_sim.Rng.pick r (Lazy.force chain)
    | 1 -> Mw_ts.random sys r ~clients:3
    | _ -> Mw_ts.random_garbage sys r
  in
  let pool = Array.init (1 + Sbft_sim.Rng.int r 12) (fun _ -> (Sbft_sim.Rng.int r 4, stamp ())) in
  let witnesses =
    List.concat_map
      (fun server ->
        if Sbft_sim.Rng.int r 4 = 0 then []
        else
          List.init
            (1 + Sbft_sim.Rng.int r (depth + 1))
            (fun rank ->
              let value, ts = Sbft_sim.Rng.pick r pool in
              w ~rank server value ts))
      (List.init n Fun.id)
  in
  (n, witnesses)

let thresholds n = List.init (n + 2) Fun.id

let qcheck_table_matches_reference =
  QCheck.Test.make ~name:"wtsg: best and nodes equal the map-based reference on union witness sets"
    ~count:2000 (QCheck.int_bound 1_000_000_000) (fun seed ->
      let n, ws = union_set (Sbft_sim.Rng.create (Int64.of_int seed)) in
      let g = Wtsg.build ws and reference = Ref.build ws in
      let nodes = Wtsg.nodes g in
      List.length nodes = List.length reference.nodes
      && List.for_all2 same_node nodes reference.nodes
      && List.for_all
           (fun a -> List.for_all (fun b -> Wtsg.newer g a b = Ref.newer reference a b) nodes)
           nodes
      && List.for_all
           (fun min_weight -> same_answer (Wtsg.best g ~min_weight) (Ref.best reference ~min_weight))
           (thresholds n))

(* The answer lies in the vote's top cycle, computed here by reachability
   over [Wtsg.newer] among the qualifying nodes. *)
let qcheck_answer_in_top_cycle =
  QCheck.Test.make ~name:"wtsg: best returns a node of the vote's top cycle" ~count:2000
    (QCheck.int_bound 1_000_000_000) (fun seed ->
      let n, ws = union_set (Sbft_sim.Rng.create (Int64.of_int seed)) in
      let g = Wtsg.build ws in
      List.for_all
        (fun min_weight ->
          let qualifying =
            Array.of_list (List.filter (fun (x : Wtsg.node) -> x.weight >= min_weight) (Wtsg.nodes g))
          in
          let q = Array.length qualifying in
          let reaches x =
            let seen = Array.make q false in
            let rec visit y =
              for z = 0 to q - 1 do
                if (not seen.(z)) && Wtsg.newer g qualifying.(y) qualifying.(z) then begin
                  seen.(z) <- true;
                  visit z
                end
              done
            in
            visit x;
            seen
          in
          let reach = Array.init q reaches in
          let top x = List.for_all (fun y -> (not reach.(y).(x)) || reach.(x).(y)) (List.init q Fun.id) in
          match Wtsg.best g ~min_weight with
          | None -> q = 0
          | Some b -> List.exists (fun x -> top x && same_node qualifying.(x) b) (List.init q Fun.id))
        (thresholds n))

let fill table ws =
  List.iter
    (fun (x : Wtsg.witness) -> Wtsg.add table ~server:x.server ~value:x.value ~ts:x.ts ~rank:x.rank)
    ws

(* The domain's reusable table carries nothing from one decision to the
   next: decide one set on it, then a second one the way a read does
   (current pairs, a decision, then the histories), and the second
   answers equal a fresh table's. *)
let qcheck_local_table_forgets =
  QCheck.Test.make ~name:"wtsg: the domain's table decides each set as a fresh one does" ~count:2000
    (QCheck.int_bound 1_000_000_000) (fun seed ->
      let r = Sbft_sim.Rng.create (Int64.of_int seed) in
      let n1, first = union_set r in
      let n2, second = union_set r in
      let t1 = Wtsg.local ~servers:n1 in
      fill t1 first;
      List.iter (fun min_weight -> ignore (Wtsg.best t1 ~min_weight)) (thresholds n1);
      let current, history = List.partition (fun (x : Wtsg.witness) -> x.rank = 0) second in
      let fresh = Wtsg.build second and fresh_current = Wtsg.build current in
      let min_weight = Sbft_sim.Rng.int r (n2 + 2) in
      let t2 = Wtsg.local ~servers:n2 in
      fill t2 current;
      let at_rank0 = Wtsg.best t2 ~min_weight in
      fill t2 history;
      same_answer at_rank0 (Wtsg.best fresh_current ~min_weight)
      && List.for_all2 same_node (Wtsg.nodes t2) (Wtsg.nodes fresh)
      && List.for_all
           (fun min_weight -> same_answer (Wtsg.best t2 ~min_weight) (Wtsg.best fresh ~min_weight))
           (thresholds n2))

let suite =
  [
    Alcotest.test_case "weights" `Quick test_weights;
    Alcotest.test_case "per-server dedup" `Quick test_per_server_dedup;
    Alcotest.test_case "best threshold" `Quick test_best_threshold;
    Alcotest.test_case "best prefers newer label" `Quick test_best_prefers_newer_label;
    Alcotest.test_case "best via recency vote" `Quick test_best_recency_vote;
    Alcotest.test_case "vote outvotes a Byzantine ranker" `Quick test_vote_outvotes_byzantine;
    Alcotest.test_case "newer relation" `Quick test_newer_relation;
    Alcotest.test_case "a vote cycle returns its top cycle" `Quick test_vote_cycle;
    Alcotest.test_case "empty graph" `Quick test_empty;
    QCheck_alcotest.to_alcotest qcheck_weight_bounded_by_servers;
    QCheck_alcotest.to_alcotest qcheck_table_matches_reference;
    QCheck_alcotest.to_alcotest qcheck_answer_in_top_cycle;
    QCheck_alcotest.to_alcotest qcheck_local_table_forgets;
  ]
