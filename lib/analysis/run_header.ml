module J = Sbft_sim.Json

type t = {
  schema : int;
  seed : int64;
  n : int;
  f : int;
  clients : int;
  ops_per_client : int;
  write_ratio : float;
  strategy : string option;
  corrupt : bool;
  delay_policy : string;
  plan : string list;
  verdict : string;
  note : string;
  trace_cap : int;
  snapshot_every : int;
  trace_level : string;
  fingerprint : string;
}

let schema_version = 3

let default_delay_policy = "uniform-10"

let default_trace_level = "on"

let make ?(strategy = None) ?(corrupt = false)
    ?(delay_policy = default_delay_policy) ?(plan = []) ?(verdict = "") ?(note = "")
    ?(trace_cap = 4096) ?(snapshot_every = 0) ?(trace_level = default_trace_level)
    ?(fingerprint = "") ~seed ~n ~f ~clients ~ops_per_client ~write_ratio () =
  {
    schema = schema_version;
    seed;
    n;
    f;
    clients;
    ops_per_client;
    write_ratio;
    strategy;
    corrupt;
    delay_policy;
    plan;
    verdict;
    note;
    trace_cap;
    snapshot_every;
    trace_level;
    fingerprint;
  }

let to_json h =
  J.Obj
    [
      ( "header",
        J.Obj
          [
            ("schema", J.Int h.schema);
            (* int64 seeds don't fit Json.Int portably; keep the string form *)
            ("seed", J.String (Int64.to_string h.seed));
            ("n", J.Int h.n);
            ("f", J.Int h.f);
            ("clients", J.Int h.clients);
            ("ops_per_client", J.Int h.ops_per_client);
            ("write_ratio", J.Float h.write_ratio);
            ("strategy", match h.strategy with Some s -> J.String s | None -> J.Null);
            ("corrupt", J.Bool h.corrupt);
            ("delay_policy", J.String h.delay_policy);
            ("plan", J.List (List.map (fun e -> J.String e) h.plan));
            ("verdict", J.String h.verdict);
            ("note", J.String h.note);
            ("trace_cap", J.Int h.trace_cap);
            ("snapshot_every", J.Int h.snapshot_every);
            ("trace_level", J.String h.trace_level);
            ("fingerprint", J.String h.fingerprint);
          ] );
    ]

let is_header j = match J.member "header" j with Some (J.Obj _) -> true | _ -> false

let of_json j =
  let ( let* ) = Result.bind in
  let* h =
    match J.member "header" j with
    | Some (J.Obj _ as h) -> Ok h
    | _ -> Error "not a run header (no \"header\" object)"
  in
  let int key =
    match J.member key h with
    | Some (J.Int i) -> Ok i
    | _ -> Error (Printf.sprintf "header: missing int field %S" key)
  in
  (* v2 fields default when absent so schema-1 artifacts still load *)
  let str_default key d =
    match J.member key h with Some (J.String s) -> s | _ -> d
  in
  let* schema = int "schema" in
  let* seed =
    match J.member "seed" h with
    | Some (J.String s) -> (
        match Int64.of_string_opt s with
        | Some v -> Ok v
        | None -> Error "header: unparseable seed")
    | _ -> Error "header: missing seed"
  in
  let* n = int "n" in
  let* f = int "f" in
  let* clients = int "clients" in
  let* ops_per_client = int "ops_per_client" in
  let* write_ratio =
    match J.member "write_ratio" h with
    | Some (J.Float v) -> Ok v
    | Some (J.Int v) -> Ok (float_of_int v)
    | _ -> Error "header: missing write_ratio"
  in
  let* strategy =
    match J.member "strategy" h with
    | Some (J.String s) -> Ok (Some s)
    | Some J.Null -> Ok None
    | _ -> Error "header: missing strategy"
  in
  let* corrupt =
    match J.member "corrupt" h with
    | Some (J.Bool b) -> Ok b
    | _ -> Error "header: missing corrupt"
  in
  let delay_policy = str_default "delay_policy" default_delay_policy in
  let* plan =
    match J.member "plan" h with
    | None -> Ok []
    | Some (J.List items) ->
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            match item with
            | J.String s -> Ok (s :: acc)
            | _ -> Error "header: plan must be a list of strings")
          (Ok []) items
        |> Result.map List.rev
    | Some _ -> Error "header: plan must be a list of strings"
  in
  let verdict = str_default "verdict" "" in
  let note = str_default "note" "" in
  let* trace_cap = int "trace_cap" in
  let* snapshot_every = int "snapshot_every" in
  (* pre-PR6 artifacts recorded only full traces *)
  let trace_level = str_default "trace_level" default_trace_level in
  let* fingerprint =
    match J.member "fingerprint" h with
    | Some (J.String s) -> Ok s
    | _ -> Error "header: missing fingerprint"
  in
  Ok
    {
      schema;
      seed;
      n;
      f;
      clients;
      ops_per_client;
      write_ratio;
      strategy;
      corrupt;
      delay_policy;
      plan;
      verdict;
      note;
      trace_cap;
      snapshot_every;
      trace_level;
      fingerprint;
    }

let pp fmt h =
  Format.fprintf fmt "schema=%d seed=%Ld n=%d f=%d clients=%d ops=%d wr=%.2f strategy=%s delay=%s%s"
    h.schema h.seed h.n h.f h.clients h.ops_per_client h.write_ratio
    (Option.value ~default:"-" h.strategy)
    h.delay_policy
    (if h.corrupt then " corrupt" else "");
  if h.trace_level <> default_trace_level then Format.fprintf fmt " trace=%s" h.trace_level;
  if h.plan <> [] then Format.fprintf fmt " plan=%s" (String.concat "," h.plan);
  if h.verdict <> "" then Format.fprintf fmt " verdict=%s" h.verdict;
  if h.note <> "" then Format.fprintf fmt " (%s)" h.note
