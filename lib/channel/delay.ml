type t = Sbft_sim.Rng.t -> src:int -> dst:int -> int

let fixed d : t = fun _ ~src:_ ~dst:_ -> Int.max 1 d

let uniform ~max:m : t = fun rng ~src:_ ~dst:_ -> Sbft_sim.Rng.int_in rng 1 (Int.max 1 m)

let bimodal ~fast ~slow ~slow_prob : t =
 fun rng ~src:_ ~dst:_ ->
  if Sbft_sim.Rng.chance rng slow_prob then Sbft_sim.Rng.int_in rng (fast + 1) (Int.max (fast + 1) slow)
  else Sbft_sim.Rng.int_in rng 1 (Int.max 1 fast)

let skew ~fast_max ~slow_max ~slow_nodes : t =
 fun rng ~src ~dst ->
  if List.mem src slow_nodes || List.mem dst slow_nodes then
    Sbft_sim.Rng.int_in rng 1 (Int.max 1 slow_max)
  else Sbft_sim.Rng.int_in rng 1 (Int.max 1 fast_max)
