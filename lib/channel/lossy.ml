module Engine = Sbft_sim.Engine
module Rng = Sbft_sim.Rng

type 'pkt t = {
  engine : Engine.t;
  rng : Rng.t;
  capacity : int;
  loss : float;
  max_delay : int;
  handler : 'pkt -> unit;
  mutable contents : 'pkt list;
  mutable sent : int;
  mutable lost : int;
}

let create engine ~capacity ~loss ~max_delay ~handler =
  {
    engine;
    rng = Rng.split (Engine.rng engine);
    capacity = max 1 capacity;
    loss;
    max_delay = max 1 max_delay;
    handler;
    contents = [];
    sent = 0;
    lost = 0;
  }

(* Remove and return a uniformly random element of the multiset. *)
let take_random t =
  match t.contents with
  | [] -> None
  | l ->
      let i = Rng.int t.rng (List.length l) in
      let rec split acc j = function
        | [] -> assert false
        | x :: rest -> if j = i then (x, List.rev_append acc rest) else split (x :: acc) (j + 1) rest
      in
      let x, rest = split [] 0 l in
      t.contents <- rest;
      Some x

let schedule_delivery t =
  Engine.schedule t.engine ~delay:(Rng.int_in t.rng 1 t.max_delay) (fun () ->
      match take_random t with None -> () | Some pkt -> t.handler pkt)

let send t pkt =
  if Rng.chance t.rng t.loss || List.length t.contents >= t.capacity then t.lost <- t.lost + 1
  else begin
    t.sent <- t.sent + 1;
    t.contents <- pkt :: t.contents;
    schedule_delivery t
  end

let preload t pkts =
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  let pkts = take (t.capacity - List.length t.contents) pkts in
  t.contents <- pkts @ t.contents;
  List.iter (fun _ -> schedule_delivery t) pkts

let occupancy t = List.length t.contents

let lost t = t.lost
