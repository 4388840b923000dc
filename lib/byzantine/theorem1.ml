module System = Sbft_core.System
module Config = Sbft_core.Config
module Network = Sbft_channel.Network
module History = Sbft_spec.History

(* ------------------------------------------------------------------ *)
(* The multiset argument.                                              *)

let ts1 = 10

let ts2 = 20

(* Observations of the proof's two reads. After w1, r1 collects
   {ts1, ts1, ts2, ts2}: two correct servers with the new timestamp,
   the slow correct server still holding the transient ts2, and the
   Byzantine server echoing ts2.  After w2 (which introduces ts2), r2
   collects {ts2, ts2, ts1, ts1}: two correct servers with ts2, one
   slow correct server with ts1, and the Byzantine echoing ts1. *)
let r1_observation = [ ts1; ts1; ts2; ts2 ]

let r2_observation = [ ts2; ts2; ts1; ts1 ]

type decision_outcome = {
  rule : string;
  r1_returns : int;
  r1_ok : bool;
  r2_returns : int;
  r2_ok : bool;
  same_multiset : bool;
}

let run_decision (rule, d) =
  let sorted l = List.sort Int.compare l in
  let r1 = d r1_observation and r2 = d r2_observation in
  {
    rule;
    r1_returns = r1;
    r1_ok = r1 = ts1;
    r2_returns = r2;
    r2_ok = r2 = ts2;
    same_multiset = sorted r1_observation = sorted r2_observation;
  }

let decisions =
  let count x l = List.length (List.filter (Int.equal x) l) in
  [
    ("max", fun l -> List.fold_left max min_int l);
    ("min", fun l -> List.fold_left min max_int l);
    ( "majority-then-max",
      fun l ->
        let best = List.fold_left (fun acc x -> max acc (count x l)) 0 l in
        List.fold_left (fun acc x -> if count x l = best then max acc x else acc) min_int l );
    ( "majority-then-min",
      fun l ->
        let best = List.fold_left (fun acc x -> max acc (count x l)) 0 l in
        List.fold_left (fun acc x -> if count x l = best then min acc x else acc) max_int l );
    ( "second-largest",
      fun l ->
        match List.rev (List.sort_uniq Int.compare l) with _ :: x :: _ -> x | x :: _ -> x | [] -> 0 );
  ]

(* ------------------------------------------------------------------ *)
(* The concrete schedule against this repository's protocol.           *)

type protocol_outcome = {
  n : int;
  f : int;
  written : int;
  read_result : string;
  violation : bool;
  aborted : bool;
}

let run_protocol ~n ~f ~seed =
  let cfg = Config.make ~allow_unsafe:true ~n ~f ~clients:2 () in
  let sys = System.create ~seed ~delay:(Sbft_channel.Delay.fixed 2) cfg in
  let net = System.network sys in
  let writer = n and reader = n + 1 in
  (* The last f servers are Byzantine stale-replayers: they forever echo
     the initial state (value 0, initial label). *)
  let _byz = Strategy.install_all sys Strategies.stale_replay in
  (* The proof's schedule, generalized: f correct servers miss the write
     (their channel from the writer is stalled) and f other correct
     servers answer the reader too late to matter.  Fresh witnesses in
     the reader's first n - f replies then number n - 3f: below the
     2f + 1 threshold exactly when n <= 5f, and the union graph hands
     the read the stale value instead. *)
  let slow_from_writer = List.init f (fun i -> i) in
  let slow_to_reader = List.init f (fun i -> f + i) in
  List.iter (fun s -> Network.set_slow net ~src:writer ~dst:s ~factor:10_000) slow_from_writer;
  List.iter (fun s -> Network.set_slow net ~src:s ~dst:reader ~factor:10_000) slow_to_reader;
  let v1 = 111 in
  let read_result = ref "never-completed" in
  let violation = ref false and aborted = ref false in
  System.write sys ~client:writer ~value:v1
    ~k:(fun () ->
      System.read sys ~client:reader
        ~k:(fun outcome ->
          match outcome with
          | History.Value v ->
              read_result := Printf.sprintf "value %d" v;
              violation := v <> v1
          | History.Abort ->
              read_result := "abort";
              aborted := true
          | History.Incomplete -> read_result := "incomplete")
        ())
    ();
  (try System.run ~max_events:2_000_000 sys with Sbft_sim.Engine.Budget_exhausted -> ());
  { n; f; written = v1; read_result = !read_result; violation = !violation; aborted = !aborted }

let pp_decision fmt o =
  Format.fprintf fmt "rule %-18s r1 -> %d (%s, must be %d)  r2 -> %d (%s, must be %d)%s" o.rule
    o.r1_returns
    (if o.r1_ok then "ok" else "WRONG")
    ts1 o.r2_returns
    (if o.r2_ok then "ok" else "WRONG")
    ts2
    (if o.same_multiset then "  [identical observations]" else "")

let pp_protocol fmt o =
  Format.fprintf fmt "n=%d f=%d: wrote %d, scheduled read returned %s -> %s" o.n o.f o.written
    o.read_result
    (if o.violation then "REGULARITY VIOLATION"
     else if o.aborted then "aborted (no violation)"
     else "no violation")
