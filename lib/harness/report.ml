let escape s =
  let buf = Buffer.create (String.length s + 16) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | '\'' -> Buffer.add_string buf "&#39;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let table_html (t : Table.t) =
  let buf = Buffer.create 1024 in
  let add = Buffer.add_string buf in
  add (Printf.sprintf "<section id=%S>\n" (String.lowercase_ascii t.id));
  add (Printf.sprintf "<h2>%s — %s</h2>\n" (escape t.id) (escape t.title));
  add "<table>\n<thead><tr>";
  List.iter (fun h -> add (Printf.sprintf "<th>%s</th>" (escape h))) t.header;
  add "</tr></thead>\n<tbody>\n";
  List.iter
    (fun row ->
      add "<tr>";
      List.iter (fun cell -> add (Printf.sprintf "<td>%s</td>" (escape cell))) row;
      add "</tr>\n")
    t.rows;
  add "</tbody>\n</table>\n";
  List.iter (fun n -> add (Printf.sprintf "<p class=\"note\">%s</p>\n" (escape n))) t.notes;
  add "</section>\n";
  Buffer.contents buf

let css =
  {|body{font-family:ui-monospace,monospace;max-width:72rem;margin:2rem auto;padding:0 1rem;
background:#fdfdfd;color:#1a1a1a}
h1{font-size:1.4rem;border-bottom:2px solid #333;padding-bottom:.4rem}
h2{font-size:1.05rem;margin-top:2.2rem}
table{border-collapse:collapse;margin:.6rem 0;font-size:.85rem}
th,td{border:1px solid #bbb;padding:.25rem .6rem;text-align:left}
th{background:#eee}
tr:nth-child(even) td{background:#f6f6f6}
.note{font-size:.8rem;color:#555;margin:.15rem 0}
.preamble{font-size:.9rem;color:#333}
nav a{margin-right:.8rem;font-size:.85rem}|}

let page ?(title = "sbft experiments") ?(preamble = "") tables =
  let buf = Buffer.create 8192 in
  let add = Buffer.add_string buf in
  add "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\n";
  add (Printf.sprintf "<title>%s</title>\n<style>%s</style></head>\n<body>\n" (escape title) css);
  add (Printf.sprintf "<h1>%s</h1>\n" (escape title));
  if preamble <> "" then add (Printf.sprintf "<div class=\"preamble\">%s</div>\n" preamble);
  add "<nav>";
  List.iter
    (fun (t : Table.t) ->
      add
        (Printf.sprintf "<a href=\"#%s\">%s</a>" (String.lowercase_ascii t.id) (escape t.id)))
    tables;
  add "</nav>\n";
  List.iter (fun t -> add (table_html t)) tables;
  add "</body></html>\n";
  Buffer.contents buf

let write_file ~path ?title ?preamble tables =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (page ?title ?preamble tables))

(* ------------------------------------------------------------------ *)
(* Streaming-run report: per-shard sparklines, stabilization markers
   and alerts, rendered from a metrics artifact's JSON.  Hand-rolled
   SVG like the rest of the page — no dependencies. *)

module J = Sbft_sim.Json

(* One inline SVG sparkline: bars for per-window values, an optional
   vertical marker at the stabilization point.  [points] pairs a
   window's virtual start time with its value ([None] = empty window);
   [marker] is a virtual time. *)
let sparkline_svg ?hi ?marker points =
  let width = 360 and height = 36 in
  let n = List.length points in
  if n = 0 then "<svg width=\"1\" height=\"1\"></svg>"
  else begin
    let hi =
      match hi with
      | Some h when h > 0.0 -> h
      | _ ->
          List.fold_left
            (fun acc (_, v) -> match v with Some x -> Float.max acc x | None -> acc)
            1e-9 points
    in
    let t0 = fst (List.hd points) in
    let t1 = fst (List.nth points (n - 1)) in
    let span = max 1 (t1 - t0) in
    let bw = Float.max 1.0 (float_of_int width /. float_of_int n -. 1.0) in
    let x_of t = float_of_int (t - t0) /. float_of_int span *. float_of_int (width - 4) in
    let buf = Buffer.create 512 in
    Buffer.add_string buf
      (Printf.sprintf
         "<svg width=\"%d\" height=\"%d\" viewBox=\"0 0 %d %d\" class=\"spark\">" width height
         width height);
    List.iter
      (fun (t, v) ->
        match v with
        | None -> ()
        | Some v ->
            let h = Float.min 1.0 (v /. hi) *. float_of_int (height - 4) in
            let h = if v > 0.0 then Float.max h 1.0 else 0.0 in
            if h > 0.0 then
              Buffer.add_string buf
                (Printf.sprintf
                   "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%.1f\" fill=\"#4a7\"/>"
                   (x_of t)
                   (float_of_int (height - 2) -. h)
                   bw h))
      points;
    (match marker with
    | Some m when m >= t0 ->
        Buffer.add_string buf
          (Printf.sprintf
             "<line x1=\"%.1f\" y1=\"0\" x2=\"%.1f\" y2=\"%d\" stroke=\"#c33\" \
              stroke-width=\"1.5\"/>"
             (x_of (min m t1)) (x_of (min m t1)) height)
    | _ -> ());
    Buffer.add_string buf "</svg>";
    Buffer.contents buf
  end

let jfloat = function Some (J.Float f) -> Some f | Some (J.Int i) -> Some (float_of_int i) | _ -> None

let jint = function Some (J.Int i) -> Some i | _ -> None

let jlist = function Some (J.List l) -> l | _ -> []

(* (virtual time, value) points of one series block, using [field] as
   the value list ("mean", "max", "count"); windows with zero count
   render as gaps. *)
let series_points ~field sj =
  let ts = jlist (J.member "t" sj) and counts = jlist (J.member "count" sj) in
  let vals = jlist (J.member field sj) in
  List.mapi
    (fun i t ->
      let t = match t with J.Int t -> t | _ -> 0 in
      let count = match List.nth_opt counts i with Some (J.Int c) -> c | _ -> 0 in
      let v = match List.nth_opt vals i with Some v -> jfloat (Some v) | None -> None in
      (t, if count = 0 then None else v))
    ts

let stab_marker_of shard_stab = jint (J.member "stabilized_at" shard_stab)

(* The full streaming report page from a metrics artifact. *)
let series_page ?(title = "sbft streaming run") artifact =
  let buf = Buffer.create 16384 in
  let add = Buffer.add_string buf in
  add "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\n";
  add
    (Printf.sprintf "<title>%s</title>\n<style>%s\n.spark{vertical-align:middle}</style></head>\n<body>\n"
       (escape title) css);
  add (Printf.sprintf "<h1>%s</h1>\n" (escape title));
  (* run parameters *)
  (match J.member "run" artifact with
  | Some (J.Obj fields) ->
      add "<section><h2>run</h2><table><tbody>\n";
      List.iter
        (fun (k, v) -> add (Printf.sprintf "<tr><th>%s</th><td>%s</td></tr>\n" (escape k) (escape (J.to_string v))))
        fields;
      add "</tbody></table></section>\n"
  | _ -> ());
  (* per-shard sparklines with stabilization markers *)
  let stab = J.member "stabilization" artifact in
  let stab_shards = match stab with Some s -> jlist (J.member "shards" s) | None -> [] in
  let stab_for shard =
    List.find_opt (fun s -> jint (J.member "shard" s) = Some shard) stab_shards
  in
  (match J.member "series" artifact with
  | Some series ->
      add "<section><h2>per-shard series</h2>\n";
      add
        "<table><thead><tr><th>shard</th><th>ops</th><th>abort rate / window</th>\
         <th>max latency / window</th><th>stabilization</th></tr></thead><tbody>\n";
      List.iter
        (fun shard_block ->
          let shard = Option.value ~default:(-1) (jint (J.member "shard" shard_block)) in
          let flow = J.member "flow" shard_block and lat = J.member "lat" shard_block in
          let ops =
            match flow with
            | Some f -> (
                match J.member "total" f with
                | Some tot -> Option.value ~default:0 (jint (J.member "count" tot))
                | None -> 0)
            | None -> 0
          in
          let marker = Option.bind (stab_for shard) stab_marker_of in
          let stab_cell =
            match stab_for shard with
            | Some s -> (
                match (jint (J.member "stabilized_at" s), jint (J.member "time_to_stabilize" s)) with
                | _, Some tts -> Printf.sprintf "stable (tts=%d)" tts
                | Some _, None -> "stable"
                | None, None -> "pending")
            | None -> "-"
          in
          let flow_svg =
            match flow with
            | Some f -> sparkline_svg ~hi:1.0 ?marker (series_points ~field:"mean" f)
            | None -> ""
          in
          let lat_svg =
            match lat with
            | Some l -> sparkline_svg ?marker (series_points ~field:"max" l)
            | None -> ""
          in
          add
            (Printf.sprintf "<tr><td>%d</td><td>%d</td><td>%s</td><td>%s</td><td>%s</td></tr>\n"
               shard ops flow_svg lat_svg (escape stab_cell)))
        (jlist (J.member "shards" series));
      (* fleet rollup row *)
      (match J.member "fleet" series with
      | Some (J.List fleet_windows) ->
          let points =
            List.map
              (fun w ->
                let idx = Option.value ~default:0 (jint (J.member "index" w)) in
                let count = Option.value ~default:0 (jint (J.member "count" w)) in
                let mean = jfloat (J.member "mean" w) in
                (idx, if count = 0 then None else mean))
              fleet_windows
          in
          let fleet_marker =
            match stab with
            | Some s -> Option.bind (J.member "fleet" s) stab_marker_of
            | None -> None
          in
          (* fleet indices are window indices, markers virtual times:
             rescale via the per-shard window width when available *)
          let window_w =
            match jlist (J.member "shards" series) with
            | first :: _ -> (
                match J.member "flow" first with
                | Some f -> Option.value ~default:1 (jint (J.member "window" f))
                | None -> 1)
            | [] -> 1
          in
          let points = List.map (fun (idx, v) -> (idx * window_w, v)) points in
          add
            (Printf.sprintf
               "<p><b>fleet</b> abort rate: %s</p>\n"
               (sparkline_svg ~hi:1.0 ?marker:fleet_marker points))
      | _ -> ());
      add "</section>\n"
  | None -> ());
  (* stabilization summary *)
  (match stab with
  | Some s ->
      add "<section><h2>stabilization</h2>\n";
      (match (jint (J.member "window" s), jint (J.member "k" s), jint (J.member "after" s)) with
      | Some w, Some k, Some a ->
          add
            (Printf.sprintf "<p class=\"note\">window=%d ticks, k=%d clean windows, last fault at t=%d</p>\n"
               w k a)
      | _ -> ());
      (match J.member "fleet" s with
      | Some fleet -> (
          match jint (J.member "time_to_stabilize" fleet) with
          | Some tts -> add (Printf.sprintf "<p>fleet time-to-stabilize: <b>%d ticks</b></p>\n" tts)
          | None -> add "<p>fleet: <b>pending</b></p>\n")
      | None -> ());
      add "</section>\n"
  | None -> ());
  (* alerts *)
  (match J.member "alerts" artifact with
  | Some alerts ->
      add "<section><h2>alerts</h2>\n";
      let log = jlist (J.member "log" alerts) in
      if log = [] then add "<p>none fired</p>\n"
      else begin
        add
          "<table><thead><tr><th>severity</th><th>rule</th><th>shard</th><th>window</th>\
           <th>detail</th></tr></thead><tbody>\n";
        List.iter
          (fun f ->
            let str k = match J.member k f with Some (J.String s) -> s | _ -> "" in
            let num k = Option.value ~default:0 (jint (J.member k f)) in
            add
              (Printf.sprintf
                 "<tr><td>%s</td><td>%s</td><td>%d</td><td>%d</td><td>%s</td></tr>\n"
                 (escape (str "severity")) (escape (str "rule")) (num "shard") (num "window")
                 (escape (str "detail"))))
          log;
        add "</tbody></table>\n"
      end;
      add "</section>\n"
  | None -> ());
  add "</body></html>\n";
  Buffer.contents buf

let write_series_report ~path ?title artifact =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (series_page ?title artifact))
