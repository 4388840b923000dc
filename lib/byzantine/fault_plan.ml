module System = Sbft_core.System
module Server = Sbft_core.Server
module Engine = Sbft_sim.Engine
module Network = Sbft_channel.Network
module Rng = Sbft_sim.Rng
module J = Sbft_sim.Json

type event =
  | Corrupt_server of int * [ `Light | `Heavy ]
  | Corrupt_client of int
  | Corrupt_channels of float
  | Corrupt_everything of [ `Light | `Heavy ]
  | Byzantine of int * string
  | Heal of int
  | Crash of int
  | Slow_node of int * int
  | Slow_channel of int * int * int
  | Partition of int list list
  | Heal_partition

type t = (int * event) list

let is_corruption = function
  | Corrupt_server _ | Corrupt_client _ | Corrupt_channels _ | Corrupt_everything _ | Heal _ ->
      (* Healing re-exposes stale state: for the stabilization clock it
         acts exactly like a transient fault on that server. *)
      true
  | Byzantine _ | Crash _ | Slow_node _ | Slow_channel _ | Partition _ | Heal_partition -> false

let pp_event fmt = function
  | Corrupt_server (id, `Light) -> Format.fprintf fmt "corrupt-server %d (light)" id
  | Corrupt_server (id, `Heavy) -> Format.fprintf fmt "corrupt-server %d (heavy)" id
  | Corrupt_client id -> Format.fprintf fmt "corrupt-client %d" id
  | Corrupt_channels d -> Format.fprintf fmt "corrupt-channels %.2f" d
  | Corrupt_everything _ -> Format.fprintf fmt "corrupt-everything"
  | Byzantine (id, s) -> Format.fprintf fmt "byzantine %d (%s)" id s
  | Heal id -> Format.fprintf fmt "heal %d" id
  | Crash id -> Format.fprintf fmt "crash %d" id
  | Slow_node (id, x) -> Format.fprintf fmt "slow-node %d x%d" id x
  | Slow_channel (s, d, x) -> Format.fprintf fmt "slow-channel %d->%d x%d" s d x
  | Partition groups ->
      Format.fprintf fmt "partition %s"
        (String.concat "|"
           (List.map (fun g -> String.concat "," (List.map string_of_int g)) groups))
  | Heal_partition -> Format.fprintf fmt "heal-partition"

let resolve_strategy name =
  match List.assoc_opt name Strategies.all with
  | Some s -> s
  | None ->
      invalid_arg
        (Printf.sprintf "Fault_plan: unknown strategy %S; known: %s" name
           (String.concat ", " (List.map fst Strategies.all)))

let run_event sys = function
  | Corrupt_server (id, sev) -> System.corrupt_server sys id ~severity:sev
  | Corrupt_client id -> System.corrupt_client sys id
  | Corrupt_channels density -> System.corrupt_channels sys ~density
  | Corrupt_everything sev -> System.corrupt_everything sys ~severity:sev
  | Byzantine (id, strategy) -> Strategy.install sys ~server:id (resolve_strategy strategy)
  | Heal id ->
      let server = System.server sys id in
      System.replace_server_handler sys id (fun ~src msg -> Server.handle server ~src msg)
  | Crash id -> Network.crash (System.network sys) id
  | Slow_node (id, factor) -> Network.set_slow_node (System.network sys) id ~factor
  | Slow_channel (src, dst, factor) -> Network.set_slow (System.network sys) ~src ~dst ~factor
  | Partition groups -> Network.partition (System.network sys) ~groups
  | Heal_partition -> Network.heal (System.network sys)

let apply ?monitor sys plan =
  let engine = System.engine sys in
  let now = Engine.now engine in
  List.iter
    (fun (at, event) ->
      let fire () =
        Sbft_sim.Metrics.incr (Engine.metrics engine) Sbft_sim.Metric_names.faults_injected;
        let tr = Engine.trace engine in
        if Sbft_sim.Trace.admits tr ~span:Sbft_sim.Event.no_span then
          Sbft_sim.Trace.emit tr ~time:(Engine.now engine)
            (Sbft_sim.Event.Fault_injected { desc = Format.asprintf "%a" pp_event event });
        run_event sys event;
        match monitor with
        | Some m when is_corruption event -> Sbft_core.Invariants.notify_corruption m
        | _ -> ()
      in
      if at <= now then fire () else Engine.schedule engine ~delay:(at - now) fire)
    plan

let storm ~seed ~n ~f ~clients:_ ~waves ~every =
  let rng = Rng.create seed in
  let plan = ref [] in
  let currently_byz = ref [] in
  for wave = 1 to waves do
    let at = wave * every in
    (* Heal last wave's Byzantine servers first. *)
    List.iter (fun id -> plan := (at - 1, Heal id) :: !plan) !currently_byz;
    currently_byz := [];
    (* Pick victims for this wave. *)
    let victims = Rng.sample rng (1 + Rng.int rng (max 1 f)) (List.init n Fun.id) in
    List.iter
      (fun id ->
        if Rng.bool rng && List.length !currently_byz < f then begin
          let name, _ = Rng.pick_list rng Strategies.all in
          plan := (at, Byzantine (id, name)) :: !plan;
          currently_byz := id :: !currently_byz
        end
        else plan := (at, Corrupt_server (id, if Rng.bool rng then `Heavy else `Light)) :: !plan)
      victims;
    if Rng.chance rng 0.5 then plan := (at, Corrupt_channels 0.2) :: !plan
  done;
  (* Let the last wave heal too, so the storm ends with honest servers. *)
  List.iter (fun id -> plan := (((waves + 1) * every) - 1, Heal id) :: !plan) !currently_byz;
  List.rev !plan

let pp fmt plan =
  List.iter (fun (at, e) -> Format.fprintf fmt "[%d] %a@." at pp_event e) plan

(* ------------------------------------------------------------------ *)
(* Serialization.  One event is "at:kind[:args]"; a plan is the list of
   those.  The compact string doubles as the CLI's --plan syntax, so
   every shrunk counterexample prints as a single sbftreg run line. *)

let severity_str = function `Light -> "light" | `Heavy -> "heavy"

let severity_of = function
  | "light" -> Ok `Light
  | "heavy" -> Ok `Heavy
  | s -> Error (Printf.sprintf "bad severity %S (light|heavy)" s)

let event_to_string (at, ev) =
  let s =
    match ev with
    | Corrupt_server (id, sev) -> Printf.sprintf "corrupt-server:%d:%s" id (severity_str sev)
    | Corrupt_client id -> Printf.sprintf "corrupt-client:%d" id
    | Corrupt_channels d -> Printf.sprintf "corrupt-channels:%g" d
    | Corrupt_everything sev -> Printf.sprintf "corrupt-all:%s" (severity_str sev)
    | Byzantine (id, strategy) -> Printf.sprintf "byz:%d:%s" id strategy
    | Heal id -> Printf.sprintf "heal:%d" id
    | Crash id -> Printf.sprintf "crash:%d" id
    | Slow_node (id, x) -> Printf.sprintf "slow-node:%d:%d" id x
    | Slow_channel (src, dst, x) -> Printf.sprintf "slow-channel:%d:%d:%d" src dst x
    | Partition groups ->
        Printf.sprintf "partition:%s"
          (String.concat "|" (List.map (fun g -> String.concat "." (List.map string_of_int g)) groups))
    | Heal_partition -> "heal-partition"
  in
  Printf.sprintf "%d:%s" at s

let event_of_string s =
  let ( let* ) = Result.bind in
  let err () = Error (Printf.sprintf "bad fault-plan event %S" s) in
  let int x = match int_of_string_opt x with Some i -> Ok i | None -> err () in
  match String.split_on_char ':' s with
  | at :: kind :: args -> (
      let* at = int at in
      let* at = if at < 0 then err () else Ok at in
      let* ev =
        match kind, args with
        | "corrupt-server", [ id; sev ] ->
            let* id = int id in
            let* sev = severity_of sev in
            Ok (Corrupt_server (id, sev))
        | "corrupt-client", [ id ] ->
            let* id = int id in
            Ok (Corrupt_client id)
        | "corrupt-channels", [ d ] -> (
            match float_of_string_opt d with
            | Some d -> Ok (Corrupt_channels d)
            | None -> err ())
        | "corrupt-all", [ sev ] ->
            let* sev = severity_of sev in
            Ok (Corrupt_everything sev)
        | "byz", [ id; strategy ] ->
            let* id = int id in
            if List.mem_assoc strategy Strategies.all then Ok (Byzantine (id, strategy))
            else Error (Printf.sprintf "unknown strategy %S in fault plan" strategy)
        | "heal", [ id ] ->
            let* id = int id in
            Ok (Heal id)
        | "crash", [ id ] ->
            let* id = int id in
            Ok (Crash id)
        | "slow-node", [ id; x ] ->
            let* id = int id in
            let* x = int x in
            Ok (Slow_node (id, x))
        | "slow-channel", [ src; dst; x ] ->
            let* src = int src in
            let* dst = int dst in
            let* x = int x in
            Ok (Slow_channel (src, dst, x))
        | "partition", [ groups ] ->
            let* groups =
              List.fold_left
                (fun acc g ->
                  let* acc = acc in
                  let* members =
                    List.fold_left
                      (fun acc m ->
                        let* acc = acc in
                        let* m = int m in
                        Ok (m :: acc))
                      (Ok []) (String.split_on_char '.' g)
                  in
                  Ok (List.rev members :: acc))
                (Ok [])
                (String.split_on_char '|' groups)
            in
            Ok (Partition (List.rev groups))
        | "heal-partition", [] -> Ok Heal_partition
        | _ -> err ()
      in
      Ok (at, ev))
  | _ -> err ()

let to_strings plan = List.map event_to_string plan

let of_strings ss =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | s :: rest -> (
        match event_of_string s with Ok e -> go (e :: acc) rest | Error _ as e -> e)
  in
  go [] ss

let to_string plan = String.concat "," (to_strings plan)

let of_string s =
  if String.trim s = "" then Ok []
  else of_strings (List.map String.trim (String.split_on_char ',' s))

let to_json plan = J.List (List.map (fun e -> J.String (event_to_string e)) plan)

let of_json = function
  | J.List items ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | J.String s :: rest -> (
            match event_of_string s with Ok e -> go (e :: acc) rest | Error _ as e -> e)
        | _ -> Error "fault plan: expected a list of strings"
      in
      go [] items
  | _ -> Error "fault plan: expected a list"

(* ------------------------------------------------------------------ *)
(* Timeline queries. *)

let last_at plan = List.fold_left (fun acc (at, _) -> max acc at) 0 plan

let sorted plan = List.stable_sort (fun (a, _) (b, _) -> compare a b) plan

let byz_budget_ok ~f plan =
  (* Walk the timeline counting simultaneously-Byzantine servers: a
     Byzantine event adds its target, Heal removes it.  The model's
     bound is violated the moment more than f servers are compromised
     at once. *)
  let module ISet = Set.Make (Int) in
  let ok = ref true in
  let byz = ref ISet.empty in
  List.iter
    (fun (_, ev) ->
      match ev with
      | Byzantine (id, _) ->
          byz := ISet.add id !byz;
          if ISet.cardinal !byz > f then ok := false
      | Heal id -> byz := ISet.remove id !byz
      | _ -> ())
    (sorted plan);
  !ok

(* ------------------------------------------------------------------ *)
(* Mutation, for the schedule fuzzer.  All randomness flows through the
   caller's generator, so a fuzzing campaign is reproducible from its
   seed.  Crash is deliberately absent from the vocabulary: crashing a
   client trivially leaves its operations incomplete, which would bury
   real findings under fake "termination" failures. *)

let random_event rng ~n ~clients ~horizon =
  let at = Rng.int rng (max 1 horizon) in
  let server () = Rng.int rng n in
  let ev =
    match Rng.int rng 9 with
    | 0 -> Corrupt_server (server (), if Rng.bool rng then `Heavy else `Light)
    | 1 -> Corrupt_client (n + Rng.int rng (max 1 clients))
    | 2 -> Corrupt_channels (0.05 +. (0.35 *. Rng.float rng))
    | 3 -> Corrupt_everything (if Rng.bool rng then `Heavy else `Light)
    | 4 ->
        let name, _ = Rng.pick_list rng Strategies.all in
        Byzantine (server (), name)
    | 5 -> Heal (server ())
    | 6 -> Slow_node (Rng.int rng (n + clients), 2 + Rng.int rng 15)
    | 7 -> Slow_channel (server (), n + Rng.int rng (max 1 clients), 2 + Rng.int rng 15)
    | _ ->
        (* A partition that never heals starves every quorum, so the
           pair is generated as one composite mutation below; here we
           only emit the (harmless) heal. *)
        Heal_partition
  in
  (at, ev)

let random_partition_window rng ~n ~clients ~horizon =
  let at = Rng.int rng (max 1 horizon) in
  let dur = 20 + Rng.int rng 120 in
  let all = List.init (n + clients) Fun.id in
  let side = Rng.sample rng (1 + Rng.int rng (max 1 (n / 2))) all in
  let other = List.filter (fun i -> not (List.mem i side)) all in
  [ (at, Partition [ side; other ]); (at + dur, Heal_partition) ]

let partitions_healed plan =
  match
    List.fold_left
      (fun acc (at, ev) -> match ev with Partition _ -> max acc at | _ -> acc)
      (-1) plan
  with
  | -1 -> true
  | last_part ->
      List.exists (function at, Heal_partition -> at >= last_part | _ -> false) plan

let mutate rng ~n ~f ~clients plan =
  let horizon = max 400 (last_at plan + 100) in
  let arr = Array.of_list plan in
  let len = Array.length arr in
  let candidate =
    match Rng.int rng (if len = 0 then 2 else 5) with
    | 0 -> plan @ [ random_event rng ~n ~clients ~horizon ]
    | 1 -> plan @ random_partition_window rng ~n ~clients ~horizon
    | 2 ->
        (* drop one event *)
        let victim = Rng.int rng len in
        List.filteri (fun i _ -> i <> victim) plan
    | 3 ->
        (* shift one event in time *)
        let victim = Rng.int rng len in
        List.mapi
          (fun i (at, ev) ->
            if i = victim then (max 0 (at + Rng.int_in rng (-80) 80), ev) else (at, ev))
          plan
    | _ ->
        (* retype: replace one event, keeping its time *)
        let victim = Rng.int rng len in
        List.mapi
          (fun i (at, ev) ->
            if i = victim then (at, snd (random_event rng ~n ~clients ~horizon)) else (at, ev))
          plan
  in
  if byz_budget_ok ~f candidate && partitions_healed candidate then candidate else plan

let has_byzantine plan = List.exists (function _, Byzantine _ -> true | _ -> false) plan

let restrict ~n ~clients plan =
  let total = n + clients in
  let ok_ep id = id >= 0 && id < total in
  List.filter
    (fun (_, ev) ->
      match ev with
      | Corrupt_server (id, _) | Byzantine (id, _) | Heal id -> id >= 0 && id < n
      | Corrupt_client id -> id >= n && id < total
      | Crash id | Slow_node (id, _) -> ok_ep id
      | Slow_channel (src, dst, _) -> ok_ep src && ok_ep dst
      | Partition groups -> List.for_all (List.for_all ok_ep) groups
      | Corrupt_channels _ | Corrupt_everything _ | Heal_partition -> true)
    plan
