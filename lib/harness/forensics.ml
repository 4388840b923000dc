module History = Sbft_spec.History
module Regularity = Sbft_spec.Regularity
module Event = Sbft_sim.Event

type op_info = { op : int; client : int; kind : string; inv : int; resp : int option }

let op_info (h : 'ts History.t) id =
  List.find_map
    (fun op ->
      match op with
      | History.Write w when w.id = id ->
          Some { op = w.id; client = w.client; kind = "write"; inv = w.inv; resp = w.resp }
      | History.Read r when r.id = id ->
          Some { op = r.id; client = r.client; kind = "read"; inv = r.inv; resp = r.resp }
      | _ -> None)
    (History.ops h)

let pp_op fmt (i : op_info) =
  Format.fprintf fmt "%s %d (client %d, [%d, %s])" i.kind i.op i.client i.inv
    (match i.resp with Some r -> string_of_int r | None -> "?")

(* Happened-before on operations: A -> B iff A responded before B was
   invoked (the paper's real-time precedence); otherwise they overlap. *)
let pp_edges fmt ops =
  let rec pairs = function
    | [] -> ()
    | a :: rest ->
        List.iter
          (fun b ->
            match a.resp, b.resp with
            | Some ar, _ when ar < b.inv -> Format.fprintf fmt "    %s %d -> %s %d@," a.kind a.op b.kind b.op
            | _, Some br when br < a.inv -> Format.fprintf fmt "    %s %d -> %s %d@," b.kind b.op a.kind a.op
            | _ -> Format.fprintf fmt "    %s %d || %s %d (concurrent)@," a.kind a.op b.kind b.op)
          rest;
        pairs rest
  in
  pairs ops

let default_name i = Printf.sprintf "n%d" i

let dump_violation ?(name = default_name) fmt ~events ~history (v : Regularity.violation) =
  let ops = List.filter_map (op_info history) (List.sort_uniq compare v.ops) in
  Format.fprintf fmt "@[<v>violation: %s@," v.detail;
  Format.fprintf fmt "  implicated operations:@,";
  List.iter (fun i -> Format.fprintf fmt "    %a@," pp_op i) ops;
  Format.fprintf fmt "  happened-before:@,";
  pp_edges fmt ops;
  (match ops with
  | [] -> ()
  | _ ->
      let from_time = List.fold_left (fun acc i -> min acc i.inv) max_int ops in
      let until =
        List.fold_left (fun acc i -> max acc (Option.value ~default:i.inv i.resp)) 0 ops
      in
      let window = List.filter (fun (time, _) -> time >= from_time && time <= until) events in
      let implicated = List.map (fun i -> i.op) ops in
      let relevant =
        List.filter
          (fun (_, ev) ->
            match Event.op_id ev with Some id -> List.mem id implicated | None -> true)
          window
      in
      Format.fprintf fmt "  trace window [%d, %d] (%d events, %d shown):@," from_time until
        (List.length window) (List.length relevant);
      List.iter (fun (time, ev) -> Format.fprintf fmt "    [%d] %a@," time Event.pp ev) relevant;
      (* the causal cone: the happened-before slice of the window that
         can reach (or be reached from) the violating read — everything
         else in the window is noise *)
      if v.read_id >= 0 then begin
        let cone =
          Sbft_analysis.Causality.cone (Sbft_analysis.Causality.build window) ~op_id:v.read_id
        in
        if Array.length cone.nodes > 0 then begin
          Format.fprintf fmt "  causal cone of read %d (%d of %d events):@," v.read_id
            (Array.length cone.nodes) (List.length window);
          String.split_on_char '\n' (Sbft_analysis.Causality.ascii ~name cone)
          |> List.iter (fun line -> if line <> "" then Format.fprintf fmt "    %s@," line)
        end
      end;
      (* where the implicated ops spent their time: the span assembler
         rebuilds each op's critical path from the window, so a
         violation report answers "was the stale read racing a slow
         commit?" without a separate spans invocation *)
      let spans_in_window =
        List.filter
          (fun (o : Sbft_analysis.Spans.op) -> List.mem o.op_id implicated)
          (Sbft_analysis.Spans.build window)
      in
      if spans_in_window <> [] then begin
        Format.fprintf fmt "  critical paths of implicated operations:@,";
        List.iter
          (fun o ->
            String.split_on_char '\n' (Format.asprintf "%a" Sbft_analysis.Spans.pp_waterfall o)
            |> List.iter (fun line -> if line <> "" then Format.fprintf fmt "    %s@," line))
          spans_in_window
      end);
  Format.fprintf fmt "@]"

let dump ?name fmt ~events ~history violations =
  List.iter (fun v -> dump_violation ?name fmt ~events ~history v) violations

let dump_string ?name ~events ~history violations =
  Format.asprintf "%a" (fun fmt () -> dump ?name fmt ~events ~history violations) ()
