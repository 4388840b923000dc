module Json = Sbft_sim.Json

type run = { source : string; label : string; metrics : (string * float) list }

type drift = { metric : string; prev : float; cur : float; rel : float }

(* Flatten every numeric leaf of a metrics/bench artifact into dotted
   paths.  Lists are skipped: positional entries (per-node counters,
   raw samples) churn with topology and would drown real drift. *)
let extract json =
  let out = ref [] in
  let rec go path j =
    match (j : Json.t) with
    | Json.Int i -> out := (path, float_of_int i) :: !out
    | Json.Float f -> out := (path, f) :: !out
    | Json.Obj fields ->
        List.iter
          (fun (k, v) -> go (if path = "" then k else path ^ "." ^ k) v)
          fields
    | Json.List _ | Json.Bool _ | Json.String _ | Json.Null -> ()
  in
  go "" json;
  List.rev !out

let of_json ~source ?(label = "") json = { source; label; metrics = extract json }

let load_artifact path =
  Result.map (of_json ~source:(Filename.basename path) ~label:path) (Json.of_file path)

(* -- the run database: append-only JSONL, one run per line ---------- *)

let run_to_json r =
  Json.Obj
    [
      ("source", Json.String r.source);
      ("label", Json.String r.label);
      ("metrics", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) r.metrics));
    ]

let run_of_json j =
  let str k = match Json.member k j with Some (Json.String s) -> s | _ -> "" in
  let metrics =
    match Json.member "metrics" j with
    | Some (Json.Obj fields) ->
        List.filter_map
          (fun (k, v) ->
            match (v : Json.t) with
            | Json.Float f -> Some (k, f)
            | Json.Int i -> Some (k, float_of_int i)
            | _ -> None)
          fields
    | _ -> []
  in
  { source = str "source"; label = str "label"; metrics }

let append ~db run =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 db in
  output_string oc (Json.to_string (run_to_json run));
  output_char oc '\n';
  close_out oc

let load_db db =
  if not (Sys.file_exists db) then Ok []
  else
    match In_channel.with_open_text db In_channel.input_lines with
    | exception Sys_error e -> Error (if String.starts_with ~prefix:db e then e else db ^ ": " ^ e)
    | lines ->
        let rec go lineno acc = function
          | [] -> Ok (List.rev acc)
          | l :: rest when String.trim l = "" -> go (lineno + 1) acc rest
          | l :: rest -> (
              match Json.of_string l with
              | Ok j -> go (lineno + 1) (run_of_json j :: acc) rest
              | Error e -> Error (Printf.sprintf "%s: line %d: %s" db lineno e))
        in
        go 1 [] lines

(* -- drift ---------------------------------------------------------- *)

let rel_drift a b = Float.abs (a -. b) /. Float.max (Float.max (Float.abs a) (Float.abs b)) 1e-9

let compare_runs ~tolerance ~prev ~cur =
  let prev_tbl = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace prev_tbl k v) prev.metrics;
  List.filter_map
    (fun (metric, c) ->
      match Hashtbl.find_opt prev_tbl metric with
      | None -> None (* a new metric is growth, not drift *)
      | Some p ->
          let rel = rel_drift p c in
          if rel > tolerance then Some { metric; prev = p; cur = c; rel } else None)
    cur.metrics

let latest_drift ~tolerance runs =
  match List.rev runs with
  | cur :: prev :: _ -> Some (prev, cur, compare_runs ~tolerance ~prev ~cur)
  | _ -> None

let pp_drift fmt d =
  Format.fprintf fmt "%-40s %14.2f -> %-14.2f (%+.0f%%)" d.metric d.prev d.cur
    ((d.cur -. d.prev) /. Float.max (Float.abs d.prev) 1e-9 *. 100.0)
