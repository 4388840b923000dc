module Msg = Sbft_core.Msg
module Server = Sbft_core.Server
module Mw_ts = Sbft_labels.Mw_ts
module Rng = Sbft_sim.Rng
open Strategy

let silent = { name = "silent"; react = (fun _ ~src:_ _ -> ()) }

let mute_phase1 =
  {
    name = "mute-phase1";
    react =
      (fun ctx ~src msg -> match msg with Msg.Get_ts -> () | _ -> correct ctx ~src msg);
  }

let mute_phase2 =
  {
    name = "mute-phase2";
    react =
      (fun ctx ~src msg -> match msg with Msg.Write_req _ -> () | _ -> correct ctx ~src msg);
  }

let nack_all =
  {
    name = "nack-all";
    react =
      (fun ctx ~src msg ->
        match msg with
        | Msg.Write_req { ts; _ } -> send ctx ~dst:src (Msg.Write_ack { ts; ack = false })
        | _ -> correct ctx ~src msg);
  }

let stale_replay =
  {
    name = "stale-replay";
    react =
      (fun ctx ~src msg ->
        (* The snapshot is whatever the displaced automaton held at
           compromise time; the automaton is never updated again. *)
        let v = Server.value ctx.underlying and ts = Server.ts ctx.underlying in
        let old = Server.old_vals ctx.underlying in
        match msg with
        | Msg.Get_ts -> send ctx ~dst:src (Msg.Ts_reply { ts })
        | Msg.Write_req { ts = wts; _ } ->
            (* Pretend to accept so writers are not slowed down. *)
            send ctx ~dst:src (Msg.Write_ack { ts = wts; ack = true })
        | Msg.Read_req { label } -> send ctx ~dst:src (Msg.Reply { value = v; ts; old; label })
        | Msg.Flush { label } -> send ctx ~dst:src (Msg.Flush_ack { label })
        | Msg.Complete_read _ -> ()
        | _ -> ());
  }

let garbage ~prob =
  {
    name = Printf.sprintf "garbage(%.2f)" prob;
    react =
      (fun ctx ~src msg ->
        if Rng.chance ctx.rng prob then
          (* Reply-shaped garbage keeps the conversation going; pure
             noise would be equivalent to silence. *)
          let reply =
            match msg with
            | Msg.Get_ts -> Msg.Ts_reply { ts = Mw_ts.random_garbage ctx.sys ctx.rng }
            | Msg.Write_req { ts; _ } -> Msg.Write_ack { ts; ack = Rng.bool ctx.rng }
            | Msg.Read_req { label } | Msg.Flush { label } ->
                if Rng.bool ctx.rng then
                  Msg.Reply
                    {
                      value = Rng.int_in ctx.rng (-1000) 1000;
                      ts = Mw_ts.random_garbage ctx.sys ctx.rng;
                      old = [];
                      label;
                    }
                else Msg.Flush_ack { label }
            | _ -> Msg.garbage ctx.sys ctx.rng
          in
          send ctx ~dst:src reply
        else correct ctx ~src msg);
  }

let equivocate =
  {
    name = "equivocate";
    react =
      (fun ctx ~src msg ->
        match msg with
        | Msg.Get_ts -> send ctx ~dst:src (Msg.Ts_reply { ts = Mw_ts.random ctx.sys ctx.rng ~clients:8 })
        | Msg.Write_req { ts; _ } -> send ctx ~dst:src (Msg.Write_ack { ts; ack = true })
        | Msg.Read_req { label } ->
            (* A per-reader lie: value derived from the reader id so two
               readers can never corroborate each other through us. *)
            send ctx ~dst:src
              (Msg.Reply
                 {
                   value = -1000 - src;
                   ts = Mw_ts.random ctx.sys ctx.rng ~clients:8;
                   old = [];
                   label;
                 })
        | Msg.Flush { label } -> send ctx ~dst:src (Msg.Flush_ack { label })
        | _ -> ());
  }

let inflate_ts =
  {
    name = "inflate-ts";
    react =
      (fun ctx ~src msg ->
        match msg with
        | Msg.Get_ts -> send ctx ~dst:src (Msg.Ts_reply { ts = Mw_ts.random_garbage ctx.sys ctx.rng })
        | _ -> correct ctx ~src msg);
  }

let mute_readers =
  {
    name = "mute-readers";
    react =
      (fun ctx ~src msg ->
        match msg with
        | Msg.Read_req _ | Msg.Flush _ | Msg.Complete_read _ -> ()
        | _ -> correct ctx ~src msg);
  }

let all =
  [
    ("silent", silent);
    ("mute-phase1", mute_phase1);
    ("mute-phase2", mute_phase2);
    ("nack-all", nack_all);
    ("stale-replay", stale_replay);
    ("garbage", garbage ~prob:0.7);
    ("equivocate", equivocate);
    ("inflate-ts", inflate_ts);
    ("mute-readers", mute_readers);
  ]
