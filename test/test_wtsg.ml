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
  Alcotest.(check int) "two nodes" 2 (Wtsg.node_count g);
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

let test_edges () =
  match ts_chain 2 with
  | [ a; b ] ->
      let g = Wtsg.build [ w 0 1 a; w 1 2 b ] in
      let es = Wtsg.edges g in
      Alcotest.(check int) "one precedence edge" 1 (List.length es);
      let x, y = List.hd es in
      Alcotest.(check int) "edge direction old -> new" 1 x.value;
      Alcotest.(check int) "edge head" 2 y.value
  | _ -> Alcotest.fail "chain"

let test_empty () =
  let g = Wtsg.build [] in
  Alcotest.(check int) "no nodes" 0 (Wtsg.node_count g);
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

(* The current-reply rule against the graph it replaces: for one rank-0
   witness per replying server, [best_current] must return what [best]
   over [build] returns, at every threshold.  Pairs come from a small
   pool so that they repeat, with timestamps from a ≺-chain, random
   valid ones and garbage. *)
let qcheck_best_current_matches_best =
  let chain = Array.of_list (ts_chain 6) in
  QCheck.Test.make ~name:"wtsg: current-reply rule equals best over the local graph" ~count:2000
    (QCheck.int_bound 1_000_000_000)
    (fun seed ->
      let r = Sbft_sim.Rng.create (Int64.of_int seed) in
      let n = 1 + Sbft_sim.Rng.int r 31 in
      let stamp () =
        match Sbft_sim.Rng.int r 3 with
        | 0 -> Sbft_sim.Rng.pick r chain
        | 1 -> Mw_ts.random sys r ~clients:3
        | _ -> Mw_ts.random_garbage sys r
      in
      let pool = Array.init (1 + Sbft_sim.Rng.int r 6) (fun _ -> (Sbft_sim.Rng.int r 3, stamp ())) in
      let replied = Array.init n (fun _ -> Sbft_sim.Rng.int r 4 > 0) in
      let pairs = Array.init n (fun _ -> Sbft_sim.Rng.pick r pool) in
      let values = Array.map fst pairs and stamps = Array.map snd pairs in
      let g =
        Wtsg.build
          (List.filter_map
             (fun s -> if replied.(s) then Some (w s values.(s) stamps.(s)) else None)
             (List.init n Fun.id))
      in
      List.for_all
        (fun min_weight ->
          match (Wtsg.best_current ~replied ~values ~stamps ~min_weight, Wtsg.best g ~min_weight) with
          | None, None -> true
          | Some a, Some b -> a.value = b.value && Mw_ts.compare a.ts b.ts = 0 && a.weight = b.weight
          | _ -> false)
        (List.init (n + 2) Fun.id))

let suite =
  [
    Alcotest.test_case "weights" `Quick test_weights;
    Alcotest.test_case "per-server dedup" `Quick test_per_server_dedup;
    Alcotest.test_case "best threshold" `Quick test_best_threshold;
    Alcotest.test_case "best prefers newer label" `Quick test_best_prefers_newer_label;
    Alcotest.test_case "best via recency vote" `Quick test_best_recency_vote;
    Alcotest.test_case "vote outvotes a Byzantine ranker" `Quick test_vote_outvotes_byzantine;
    Alcotest.test_case "newer relation" `Quick test_newer_relation;
    Alcotest.test_case "edges" `Quick test_edges;
    Alcotest.test_case "empty graph" `Quick test_empty;
    QCheck_alcotest.to_alcotest qcheck_weight_bounded_by_servers;
    QCheck_alcotest.to_alcotest qcheck_best_current_matches_best;
  ]
