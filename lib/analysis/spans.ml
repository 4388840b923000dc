module Event = Sbft_sim.Event
module Json = Sbft_sim.Json

type leg = {
  server : int;
  kind : string;
  req_sent : int;
  req_recv : int option;
  reply_sent : int option;
  reply_recv : int option;
}

type phase = {
  name : string;
  start_ : int;
  finish : int;
  quorum : int option;
  legs : leg list;
}

type op = {
  span : int;
  op_id : int;
  client : int;
  kind : string;
  started : int;
  finished : int option;
  outcome : string option;
  total : int option;
  shard : int option;
  phases : phase list;
}

type segment = { phase : string; label : string; ticks : int }

(* ------------------------------------------------------------------ *)
(* Assembly.                                                           *)

(* One message round-trip under assembly: the request send is the
   anchor, the other three timestamps fill in as the matching events
   arrive. *)
type leg_acc = {
  a_server : int;
  a_kind : string;
  a_req_sent : int;
  mutable a_req_recv : int option;
  mutable a_reply_sent : int option;
  mutable a_reply_recv : int option;
}

type span_acc = {
  mutable s_op : (int * int * string * int) option; (* op_id, client, kind, started *)
  mutable s_finished : (int * string * int) option; (* time, outcome, ticks *)
  mutable s_shard : int option;
  (* phase marks, newest first: (name, mark time, ticks) *)
  mutable s_marks : (string * int * int) list;
  mutable s_quorums : (string * int) list; (* phase -> size, newest first *)
  mutable s_legs : leg_acc list; (* newest first *)
  (* in-flight sends per (src, dst, kind), FIFO — channels are FIFO so
     within one span deliveries match sends in order *)
  s_inflight : (int * int * string, int Queue.t) Hashtbl.t;
}

let fresh_acc () =
  {
    s_op = None;
    s_finished = None;
    s_shard = None;
    s_marks = [];
    s_quorums = [];
    s_legs = [];
    s_inflight = Hashtbl.create 8;
  }

let inflight_push acc key t =
  let q =
    match Hashtbl.find_opt acc.s_inflight key with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.add acc.s_inflight key q;
        q
  in
  Queue.push t q

let inflight_pop acc key =
  match Hashtbl.find_opt acc.s_inflight key with
  | Some q -> Queue.take_opt q
  | None -> None

(* The newest request leg at [server] still missing the given slot.
   Newest-first is the right order: a server answers the request it
   just received, and a retried phase's fresh request must not be
   confused with the abandoned one. *)
let rec find_leg legs server pick =
  match legs with
  | [] -> None
  | l :: rest -> if l.a_server = server && pick l then Some l else find_leg rest server pick

let on_event acc ~time ev =
  match (ev : Event.t) with
  | Event.Op_started { op_id; client; kind; _ } ->
      if acc.s_op = None then acc.s_op <- Some (op_id, client, kind, time)
  | Event.Op_phase { phase; ticks; _ } -> acc.s_marks <- (phase, time, ticks) :: acc.s_marks
  | Event.Op_finished { outcome; ticks; _ } ->
      if acc.s_finished = None then acc.s_finished <- Some (time, outcome, ticks)
  | Event.Quorum_formed { phase; size; _ } -> acc.s_quorums <- (phase, size) :: acc.s_quorums
  | Event.Span_tag { tag; v; _ } -> if tag = "shard" then acc.s_shard <- Some v
  | Event.Msg_sent { src; dst; kind; _ } -> (
      inflight_push acc (src, dst, kind) time;
      match acc.s_op with
      | Some (_, client, _, _) when src = client ->
          (* client -> server: a new request leg *)
          acc.s_legs <-
            {
              a_server = dst;
              a_kind = kind;
              a_req_sent = time;
              a_req_recv = None;
              a_reply_sent = None;
              a_reply_recv = None;
            }
            :: acc.s_legs
      | Some (_, client, _, _) when dst = client -> (
          (* server -> client: the reply half of the newest answered-
             but-unreplied leg at that server *)
          match
            find_leg acc.s_legs src (fun l -> l.a_reply_sent = None && l.a_req_recv <> None)
          with
          | Some l -> l.a_reply_sent <- Some time
          | None -> () (* unsolicited push (forwarded reply): not a round trip *))
      | _ -> ())
  | Event.Msg_delivered { src; dst; kind; _ } -> (
      let sent = inflight_pop acc (src, dst, kind) in
      match acc.s_op with
      | Some (_, client, _, _) when src = client -> (
          (* request arrival: FIFO-match to the oldest un-received leg
             at that server with this send time *)
          match
            find_leg (List.rev acc.s_legs) dst (fun l ->
                l.a_req_recv = None && Some l.a_req_sent = sent)
          with
          | Some l -> l.a_req_recv <- Some time
          | None -> ())
      | Some (_, client, _, _) when dst = client -> (
          match
            find_leg (List.rev acc.s_legs) src (fun l ->
                l.a_reply_recv = None && l.a_reply_sent <> None && l.a_reply_sent = sent)
          with
          | Some l -> l.a_reply_recv <- Some time
          | None -> ())
      | _ -> ())
  | Event.Msg_dropped { src; dst; kind; _ } ->
      ignore (inflight_pop acc (src, dst, kind))
  | _ -> ()

let finish_acc span acc =
  match acc.s_op with
  | None -> None (* a span with no Op_started (cut off by a window) is not an op *)
  | Some (op_id, client, kind, started) ->
      let legs =
        List.rev_map
          (fun a ->
            {
              server = a.a_server;
              kind = a.a_kind;
              req_sent = a.a_req_sent;
              req_recv = a.a_req_recv;
              reply_sent = a.a_reply_sent;
              reply_recv = a.a_reply_recv;
            })
          acc.s_legs
      in
      (* Phase windows tile the op: each Op_phase mark at time [t] with
         [ticks] closes the window [t - ticks, t]. *)
      let marks = List.rev acc.s_marks in
      let quorum_of name =
        List.fold_left
          (fun found (ph, size) -> if found = None && ph = name then Some size else found)
          None (List.rev acc.s_quorums)
      in
      let n_marks = List.length marks in
      let phases =
        List.mapi
          (fun i (name, t, ticks) ->
            let start_ = t - ticks and finish = t in
            (* half-open [start, finish): a request sent at the instant
               a phase completes belongs to the next phase; the last
               window is closed so the final tick is attributed *)
            let last = i = n_marks - 1 in
            let mine l =
              l.req_sent >= start_ && (l.req_sent < finish || (last && l.req_sent <= finish))
            in
            { name; start_; finish; quorum = quorum_of name; legs = List.filter mine legs })
          marks
      in
      let finished, outcome, total =
        match acc.s_finished with
        | Some (t, out, ticks) -> (Some t, Some out, Some ticks)
        | None -> (None, None, None)
      in
      Some
        {
          span;
          op_id;
          client;
          kind;
          started;
          finished;
          outcome;
          total;
          shard = acc.s_shard;
          phases;
        }

let build events =
  let accs : (int, span_acc) Hashtbl.t = Hashtbl.create 256 in
  let order = ref [] in
  List.iter
    (fun (time, ev) ->
      let span = Event.span ev in
      if span <> Event.no_span then begin
        let acc =
          match Hashtbl.find_opt accs span with
          | Some a -> a
          | None ->
              let a = fresh_acc () in
              Hashtbl.add accs span a;
              order := span :: !order;
              a
        in
        on_event acc ~time ev
      end)
    events;
  List.rev !order
  |> List.filter_map (fun span -> finish_acc span (Hashtbl.find accs span))

(* ------------------------------------------------------------------ *)
(* Critical path.                                                      *)

(* A phase's window is carved at the boundaries of its fastest
   completing round trip: the wait for the quorum's straggler is
   everything after the first full reply.  Boundaries are clamped
   monotone inside the window, so the segments always sum exactly to
   the window length — attribution is total by construction. *)
let phase_segments (p : phase) =
  let window = p.finish - p.start_ in
  if window <= 0 then []
  else if p.name = "retry" then [ { phase = p.name; label = "retry"; ticks = window } ]
  else
    let complete =
      List.filter
        (fun l -> l.req_recv <> None && l.reply_sent <> None && l.reply_recv <> None)
        p.legs
    in
    match (complete, p.legs) with
    | [], [] -> [ { phase = p.name; label = "client.local"; ticks = window } ]
    | [], _ -> [ { phase = p.name; label = "stall"; ticks = window } ]
    | _ ->
        let fastest =
          List.fold_left
            (fun best l ->
              match (best : leg option) with
              | None -> Some l
              | Some b when Option.get l.reply_recv < Option.get b.reply_recv -> Some l
              | some -> some)
            None complete
          |> Option.get
        in
        let clamp prev v = min (max v prev) p.finish in
        let b0 = p.start_ in
        let b1 = clamp b0 fastest.req_sent in
        let b2 = clamp b1 (Option.get fastest.req_recv) in
        let b3 = clamp b2 (Option.get fastest.reply_sent) in
        let b4 = clamp b3 (Option.get fastest.reply_recv) in
        let seg label a b = { phase = p.name; label; ticks = b - a } in
        List.filter
          (fun s -> s.ticks > 0)
          [
            seg "dispatch" b0 b1;
            seg "net.request" b1 b2;
            seg "server.service" b2 b3;
            seg "net.reply" b3 b4;
            seg "quorum.wait" b4 p.finish;
          ]

let critical_path (o : op) = List.concat_map phase_segments o.phases

(* Attributed share of the op's measured latency.  Phases tile the
   lifetime and each window is fully attributed, so a completely traced
   op scores 1.0; a trace that lost phase marks shows up here. *)
let coverage (o : op) =
  match o.total with
  | None | Some 0 -> if o.phases = [] then 0.0 else 1.0
  | Some total ->
      let attributed =
        List.fold_left (fun acc s -> acc + s.ticks) 0 (critical_path o)
      in
      float_of_int attributed /. float_of_int total

(* ------------------------------------------------------------------ *)
(* Aggregation.                                                        *)

type agg_row = {
  group : string;
  op_kind : string;
  count : int;
  p50 : int;
  p95 : int;
  p99 : int;
  breakdown : (string * float) list;
  min_coverage : float;
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let seg_key s = s.phase ^ "." ^ s.label

let aggregate ?(by_shard = false) (ops : op list) =
  let finished = List.filter (fun o -> o.total <> None) ops in
  let key o =
    ( (if by_shard then
         match o.shard with Some s -> Printf.sprintf "shard %d" s | None -> "unsharded"
       else "all"),
      o.kind )
  in
  let groups : (string * string, op list ref) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun o ->
      let k = key o in
      match Hashtbl.find_opt groups k with
      | Some r -> r := o :: !r
      | None ->
          Hashtbl.add groups k (ref [ o ]);
          order := k :: !order)
    finished;
  List.rev !order
  |> List.map (fun ((group, op_kind) as k) ->
         let members = List.rev !(Hashtbl.find groups k) in
         let totals =
           List.map (fun o -> Option.get o.total) members |> Array.of_list
         in
         Array.sort compare totals;
         let count = List.length members in
         (* mean ticks per op for every phase.label seen in the group *)
         let sums : (string, float ref) Hashtbl.t = Hashtbl.create 16 in
         let seg_order = ref [] in
         List.iter
           (fun o ->
             List.iter
               (fun s ->
                 let sk = seg_key s in
                 match Hashtbl.find_opt sums sk with
                 | Some r -> r := !r +. float_of_int s.ticks
                 | None ->
                     Hashtbl.add sums sk (ref (float_of_int s.ticks));
                     seg_order := sk :: !seg_order)
               (critical_path o))
           members;
         let breakdown =
           List.rev !seg_order
           |> List.map (fun sk -> (sk, !(Hashtbl.find sums sk) /. float_of_int count))
         in
         let min_coverage =
           List.fold_left (fun acc o -> min acc (coverage o)) infinity members
         in
         {
           group;
           op_kind;
           count;
           p50 = percentile totals 0.50;
           p95 = percentile totals 0.95;
           p99 = percentile totals 0.99;
           breakdown;
           min_coverage = (if min_coverage = infinity then 0.0 else min_coverage);
         })

(* ------------------------------------------------------------------ *)
(* Rendering.                                                          *)

let pp_waterfall fmt (o : op) =
  let total = match o.total with Some t -> t | None -> 0 in
  let cov = coverage o in
  Format.fprintf fmt "@[<v>span %d %s op %d client %d: %d ticks%s, coverage %.0f%%@,"
    o.span o.kind o.op_id o.client total
    (match o.outcome with Some out -> " (" ^ out ^ ")" | None -> " (unfinished)")
    (cov *. 100.0);
  let segs = critical_path o in
  let width = 48 in
  let scale = if total <= 0 then 0.0 else float_of_int width /. float_of_int total in
  let label_w =
    List.fold_left (fun acc s -> max acc (String.length (seg_key s))) 0 segs
  in
  let off = ref 0 in
  List.iter
    (fun s ->
      let lead = int_of_float (float_of_int !off *. scale) in
      let bar = max 1 (int_of_float (float_of_int s.ticks *. scale)) in
      Format.fprintf fmt "  %-*s |%s%s%s| %d@," label_w (seg_key s) (String.make lead ' ')
        (String.make (min bar (max 0 (width - lead))) '#')
        (String.make (max 0 (width - lead - bar)) ' ')
        s.ticks;
      off := !off + s.ticks)
    segs;
  Format.fprintf fmt "@]"

let pp_agg_row fmt r =
  Format.fprintf fmt "%-12s %-6s n=%-6d p50=%-6d p95=%-6d p99=%-6d min_cov=%.2f" r.group
    r.op_kind r.count r.p50 r.p95 r.p99 r.min_coverage;
  List.iter (fun (k, v) -> Format.fprintf fmt "@,    %-24s %8.1f" k v) r.breakdown

(* ------------------------------------------------------------------ *)
(* JSON.                                                               *)

let opt_int = function Some i -> Json.Int i | None -> Json.Null

let leg_to_json l =
  Json.Obj
    [
      ("server", Json.Int l.server);
      ("kind", Json.String l.kind);
      ("req_sent", Json.Int l.req_sent);
      ("req_recv", opt_int l.req_recv);
      ("reply_sent", opt_int l.reply_sent);
      ("reply_recv", opt_int l.reply_recv);
    ]

let phase_to_json p =
  Json.Obj
    [
      ("name", Json.String p.name);
      ("start", Json.Int p.start_);
      ("finish", Json.Int p.finish);
      ("quorum", opt_int p.quorum);
      ("legs", Json.List (List.map leg_to_json p.legs));
    ]

let op_to_json o =
  Json.Obj
    [
      ("span", Json.Int o.span);
      ("op_id", Json.Int o.op_id);
      ("client", Json.Int o.client);
      ("kind", Json.String o.kind);
      ("started", Json.Int o.started);
      ("finished", opt_int o.finished);
      ("outcome", (match o.outcome with Some s -> Json.String s | None -> Json.Null));
      ("total", opt_int o.total);
      ("shard", opt_int o.shard);
      ("coverage", Json.Float (coverage o));
      ("phases", Json.List (List.map phase_to_json o.phases));
      ( "critical_path",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("phase", Json.String s.phase);
                   ("label", Json.String s.label);
                   ("ticks", Json.Int s.ticks);
                 ])
             (critical_path o)) );
    ]

let to_json ops = Json.List (List.map op_to_json ops)
