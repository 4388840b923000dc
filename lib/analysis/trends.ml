module Json = Sbft_sim.Json

type run = { source : string; label : string; metrics : (string * float) list }

let of_json ~source ?(label = "") json =
  { source; label; metrics = Diff.flatten ~keep:(fun _ -> true) json }

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

let naming db e = if String.starts_with ~prefix:db e then e else db ^ ": " ^ e

let append ~db run =
  match
    Out_channel.with_open_gen [ Open_append; Open_creat ] 0o644 db (fun oc ->
        output_string oc (Json.to_string (run_to_json run));
        output_char oc '\n')
  with
  | () -> Ok ()
  | exception Sys_error e -> Error (naming db e)

let load_db db =
  if not (Sys.file_exists db) then Ok []
  else
    match In_channel.with_open_text db In_channel.input_lines with
    | exception Sys_error e -> Error (naming db e)
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

let latest_drift ~tolerance runs =
  match List.rev runs with
  | cur :: prev :: _ -> Some (prev, cur, Diff.compare_flat ~tolerance prev.metrics cur.metrics)
  | _ -> None
