module System = Sbft_core.System
module Config = Sbft_core.Config
module Msg = Sbft_core.Msg
module Network = Sbft_channel.Network
module Engine = Sbft_sim.Engine
module Rng = Sbft_sim.Rng

let flood sys ~client ~period ~until =
  let net = System.network sys in
  let engine = System.engine sys in
  let cfg = System.config sys in
  let rng = Rng.split (System.rng sys) in
  let sbls = System.label_system sys in
  (* Disconnect the correct automaton: the compromised endpoint ignores
     everything sent to it. *)
  Network.register net client (fun ~dst:_ ~src:_ _ -> ());
  let junk () =
    match Rng.int rng 5 with
    | 0 -> Msg.Read_req { label = Rng.int_in rng (-1) (cfg.read_label_pool + 2) }
    | 1 -> Msg.Complete_read { label = Rng.int_in rng (-1) (cfg.read_label_pool + 2) }
    | 2 -> Msg.Flush { label = Rng.int_in rng (-1) (cfg.read_label_pool + 2) }
    | 3 -> Msg.Get_ts
    | _ -> Msg.garbage sbls rng
  in
  let rec tick () =
    if Engine.now engine < until then begin
      List.iter (fun s -> Network.send net ~src:client ~dst:s (junk ())) (Config.server_ids cfg);
      Engine.schedule engine ~delay:(max 1 period) tick
    end
  in
  tick ()

let ghost_reader sys ~client =
  let net = System.network sys in
  let cfg = System.config sys in
  let rng = Rng.split (System.rng sys) in
  Network.register net client (fun ~dst:_ ~src:_ _ -> ());
  List.iter
    (fun s ->
      Network.send net ~src:client ~dst:s
        (Msg.Read_req { label = Rng.int rng cfg.read_label_pool }))
    (Config.server_ids cfg)
