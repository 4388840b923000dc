module Network = Sbft_channel.Network
module Engine = Sbft_sim.Engine
module System = Sbft_core.System

type entry = { time : int; event : [ `Send | `Deliver ]; src : int; dst : int; label : string }

type t = { mutable rev_entries : entry list }

let attach net ~describe =
  let t = { rev_entries = [] } in
  let engine = Network.engine net in
  Network.observe net
    (Some
       (fun ~event ~src ~dst msg ->
         t.rev_entries <-
           { time = Engine.now engine; event; src; dst; label = describe msg } :: t.rev_entries));
  t

let entries t = List.rev t.rev_entries

let projection ?(from_time = 0) ?(until = max_int) ~endpoint ~name t =
  let relevant =
    List.filter
      (fun e ->
        e.time >= from_time && e.time <= until
        &&
        match e.event with `Send -> e.src = endpoint | `Deliver -> e.dst = endpoint)
      (entries t)
  in
  (* Fold a same-instant broadcast of one message into a peer range. *)
  let rec group acc = function
    | [] -> List.rev acc
    | e :: rest ->
        let same e' =
          e'.time = e.time && e'.event = e.event && e'.label = e.label && e'.event = `Send
        in
        let batch, rest = List.partition same rest in
        if e.event = `Send && batch <> [] then group ((e, e :: batch) :: acc) rest
        else group ((e, [ e ]) :: acc) rest
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "projection at %s (t in [%s, %s]):\n" (name endpoint)
       (string_of_int from_time)
       (if until = max_int then "end" else string_of_int until));
  List.iter
    (fun (e, batch) ->
      let peers =
        match e.event with
        | `Send -> List.map (fun x -> x.dst) batch
        | `Deliver -> [ e.src ]
      in
      let peer_str =
        match peers with
        | [ p ] -> name p
        | ps ->
            let sorted = List.sort Int.compare ps in
            Printf.sprintf "%s..%s (%d)" (name (List.hd sorted))
              (name (List.nth sorted (List.length sorted - 1)))
              (List.length sorted)
      in
      let line =
        match e.event with
        | `Send -> Printf.sprintf "  [%5d] ──%s──▶ %s\n" e.time e.label peer_str
        | `Deliver -> Printf.sprintf "  [%5d] ◀──%s── %s\n" e.time e.label peer_str
      in
      Buffer.add_string buf line)
    (group [] relevant);
  Buffer.contents buf

type figure4 = {
  outcome : Sbft_spec.History.read_outcome;
  write_projection : string;
  read_projection : string;
  counters : (string * int) list;
}

let figure4 ~seed =
  let n = 6 in
  let cfg = Sbft_core.Config.make ~n ~f:1 ~clients:2 () in
  let sys = System.create ~seed ~trace_level:Sbft_sim.Trace.On cfg in
  let flow =
    attach (System.network sys) ~describe:(fun m -> Format.asprintf "%a" Sbft_core.Msg.pp m)
  in
  let engine = System.engine sys in
  let outcome = ref Sbft_spec.History.Incomplete and read_start = ref 0 in
  System.write sys ~client:n ~value:7
    ~k:(fun () ->
      read_start := Engine.now engine;
      System.read sys ~client:(n + 1) ~k:(fun o -> outcome := o) ())
    ();
  System.quiesce sys;
  let name i = if i < n then Printf.sprintf "s%d" i else Printf.sprintf "c%d" i in
  {
    outcome = !outcome;
    write_projection = projection ~until:(!read_start - 1) ~endpoint:n ~name flow;
    read_projection = projection ~from_time:!read_start ~endpoint:(n + 1) ~name flow;
    counters = Sbft_sim.Metrics.counters (Engine.metrics engine);
  }
