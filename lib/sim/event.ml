type t =
  | Msg_sent of { src : int; dst : int; kind : string; span : int }
  | Msg_delivered of { src : int; dst : int; kind : string; span : int }
  | Msg_dropped of { src : int; dst : int; kind : string; reason : string; span : int }
  | Retransmit of { label : int }
  | Ack_roundtrip of { label : int; ticks : int }
  | Quorum_formed of { op_id : int; client : int; phase : string; size : int; span : int }
  | Label_adopted of { server : int; writer : int; ack : bool }
  | Epoch_changed of { node : int; epoch : int; what : string }
  | Fault_injected of { desc : string }
  | Op_started of { op_id : int; client : int; kind : string; span : int }
  | Op_phase of { op_id : int; client : int; phase : string; ticks : int; span : int }
  | Op_finished of {
      op_id : int;
      client : int;
      kind : string;
      outcome : string;
      ticks : int;
      span : int;
    }
  | Violation of { op_id : int; kind : string; detail : string }
  | Server_state of { server : int; value : int; ts : string; sting : int; hist_len : int; readers : int }
  | Span_tag of { span : int; tag : string; v : int }
  | Alert of { shard : int; rule : string; severity : string; detail : string; window : int }

let no_span = -1

let op_id = function
  | Quorum_formed { op_id; _ }
  | Op_started { op_id; _ }
  | Op_phase { op_id; _ }
  | Op_finished { op_id; _ }
  | Violation { op_id; _ } ->
      Some op_id
  | Msg_sent _ | Msg_delivered _ | Msg_dropped _ | Retransmit _ | Ack_roundtrip _
  | Label_adopted _ | Epoch_changed _ | Fault_injected _ | Server_state _ | Span_tag _
  | Alert _ ->
      None

let span = function
  | Msg_sent { span; _ }
  | Msg_delivered { span; _ }
  | Msg_dropped { span; _ }
  | Quorum_formed { span; _ }
  | Op_started { span; _ }
  | Op_phase { span; _ }
  | Op_finished { span; _ }
  | Span_tag { span; _ } ->
      span
  | Retransmit _ | Ack_roundtrip _ | Label_adopted _ | Epoch_changed _ | Fault_injected _
  | Violation _ | Server_state _ | Alert _ ->
      no_span

let location = function
  | Msg_sent { src; _ } -> Some src
  | Msg_delivered { dst; _ } | Msg_dropped { dst; _ } -> Some dst
  | Quorum_formed { client; _ }
  | Op_started { client; _ }
  | Op_phase { client; _ }
  | Op_finished { client; _ } ->
      Some client
  | Label_adopted { server; _ } -> Some server
  | Epoch_changed { node; _ } -> Some node
  | Server_state { server; _ } -> Some server
  | Retransmit _ | Ack_roundtrip _ | Fault_injected _ | Violation _ | Span_tag _ | Alert _ ->
      None

let name = function
  | Msg_sent _ -> "msg_sent"
  | Msg_delivered _ -> "msg_delivered"
  | Msg_dropped _ -> "msg_dropped"
  | Retransmit _ -> "retransmit"
  | Ack_roundtrip _ -> "ack_roundtrip"
  | Quorum_formed _ -> "quorum_formed"
  | Label_adopted _ -> "label_adopted"
  | Epoch_changed _ -> "epoch_changed"
  | Fault_injected _ -> "fault_injected"
  | Op_started _ -> "op_started"
  | Op_phase _ -> "op_phase"
  | Op_finished _ -> "op_finished"
  | Violation _ -> "violation"
  | Server_state _ -> "server_state"
  | Span_tag _ -> "span_tag"
  | Alert _ -> "alert"

(* Dense constructor indexing for allocation-free per-kind counters
   (the profiler's event attribution).  Must stay in sync with [kinds]
   and [name]. *)
let index = function
  | Msg_sent _ -> 0
  | Msg_delivered _ -> 1
  | Msg_dropped _ -> 2
  | Retransmit _ -> 3
  | Ack_roundtrip _ -> 4
  | Quorum_formed _ -> 5
  | Label_adopted _ -> 6
  | Epoch_changed _ -> 7
  | Fault_injected _ -> 8
  | Op_started _ -> 9
  | Op_phase _ -> 10
  | Op_finished _ -> 11
  | Violation _ -> 12
  | Server_state _ -> 13
  | Span_tag _ -> 14
  | Alert _ -> 15

let kinds =
  [|
    "msg_sent";
    "msg_delivered";
    "msg_dropped";
    "retransmit";
    "ack_roundtrip";
    "quorum_formed";
    "label_adopted";
    "epoch_changed";
    "fault_injected";
    "op_started";
    "op_phase";
    "op_finished";
    "violation";
    "server_state";
    "span_tag";
    "alert";
  |]

let to_json ~time ev =
  let base rest = Json.Obj (("t", Json.Int time) :: ("ev", Json.String (name ev)) :: rest) in
  let s v = Json.String v and i v = Json.Int v in
  (* [span] is omitted when unattributed, so span-free events keep
     their pre-span encoding byte for byte. *)
  let sp span rest = if span = no_span then rest else ("span", Json.Int span) :: rest in
  match ev with
  | Msg_sent { src; dst; kind; span } ->
      base (sp span [ ("src", i src); ("dst", i dst); ("kind", s kind) ])
  | Msg_delivered { src; dst; kind; span } ->
      base (sp span [ ("src", i src); ("dst", i dst); ("kind", s kind) ])
  | Msg_dropped { src; dst; kind; reason; span } ->
      base (sp span [ ("src", i src); ("dst", i dst); ("kind", s kind); ("reason", s reason) ])
  | Retransmit { label } -> base [ ("label", i label) ]
  | Ack_roundtrip { label; ticks } -> base [ ("label", i label); ("ticks", i ticks) ]
  | Quorum_formed { op_id; client; phase; size; span } ->
      base
        (sp span [ ("op_id", i op_id); ("client", i client); ("phase", s phase); ("size", i size) ])
  | Label_adopted { server; writer; ack } ->
      base [ ("server", i server); ("writer", i writer); ("ack", Json.Bool ack) ]
  | Epoch_changed { node; epoch; what } ->
      base [ ("node", i node); ("epoch", i epoch); ("what", s what) ]
  | Fault_injected { desc } -> base [ ("desc", s desc) ]
  | Op_started { op_id; client; kind; span } ->
      base (sp span [ ("op_id", i op_id); ("client", i client); ("kind", s kind) ])
  | Op_phase { op_id; client; phase; ticks; span } ->
      base
        (sp span
           [ ("op_id", i op_id); ("client", i client); ("phase", s phase); ("ticks", i ticks) ])
  | Op_finished { op_id; client; kind; outcome; ticks; span } ->
      base
        (sp span
           [
             ("op_id", i op_id);
             ("client", i client);
             ("kind", s kind);
             ("outcome", s outcome);
             ("ticks", i ticks);
           ])
  | Violation { op_id; kind; detail } ->
      base [ ("op_id", i op_id); ("kind", s kind); ("detail", s detail) ]
  | Server_state { server; value; ts; sting; hist_len; readers } ->
      base
        [
          ("server", i server);
          ("value", i value);
          ("ts", s ts);
          ("sting", i sting);
          ("hist_len", i hist_len);
          ("readers", i readers);
        ]
  | Span_tag { span; tag; v } -> base [ ("span", i span); ("tag", s tag); ("v", i v) ]
  | Alert { shard; rule; severity; detail; window } ->
      base
        [
          ("shard", i shard);
          ("rule", s rule);
          ("severity", s severity);
          ("detail", s detail);
          ("window", i window);
        ]

let pp fmt = function
  | Msg_sent { src; dst; kind; _ } -> Format.fprintf fmt "send %d->%d %s" src dst kind
  | Msg_delivered { src; dst; kind; _ } -> Format.fprintf fmt "deliver %d->%d %s" src dst kind
  | Msg_dropped { src; dst; kind; reason; _ } ->
      Format.fprintf fmt "drop %d->%d %s (%s)" src dst kind reason
  | Retransmit { label } -> Format.fprintf fmt "retransmit l%d" label
  | Ack_roundtrip { label; ticks } -> Format.fprintf fmt "ack-rtt l%d %d ticks" label ticks
  | Quorum_formed { op_id; client; phase; size; _ } ->
      Format.fprintf fmt "quorum op=%d c%d %s size=%d" op_id client phase size
  | Label_adopted { server; writer; ack } ->
      Format.fprintf fmt "s%d adopts label from c%d (%s)" server writer
        (if ack then "ACK" else "NACK")
  | Epoch_changed { node; epoch; what } -> Format.fprintf fmt "%d %s epoch -> %d" node what epoch
  | Fault_injected { desc } -> Format.fprintf fmt "FAULT %s" desc
  | Op_started { op_id; client; kind; _ } ->
      Format.fprintf fmt "op=%d c%d %s start" op_id client kind
  | Op_phase { op_id; client; phase; ticks; _ } ->
      Format.fprintf fmt "op=%d c%d phase %s done in %d" op_id client phase ticks
  | Op_finished { op_id; client; kind; outcome; ticks; _ } ->
      Format.fprintf fmt "op=%d c%d %s -> %s in %d" op_id client kind outcome ticks
  | Violation { op_id; kind; detail } ->
      Format.fprintf fmt "VIOLATION op=%d [%s] %s" op_id kind detail
  | Server_state { server; value; ts; sting = _; hist_len; readers } ->
      Format.fprintf fmt "s%d state v=%d ts=%s hist=%d readers=%d" server value ts hist_len
        readers
  | Span_tag { span; tag; v } -> Format.fprintf fmt "span %d %s=%d" span tag v
  | Alert { shard; rule; severity; detail; window } ->
      Format.fprintf fmt "ALERT [%s] shard %d %s: %s (window %d)" severity shard rule detail
        window

let to_string ev = Format.asprintf "%a" pp ev

(* ------------------------------------------------------------------ *)
(* Parsing trace records back (replay, causal analysis). *)

let of_json j =
  let ( let* ) = Result.bind in
  let int key =
    match Json.member key j with
    | Some (Json.Int i) -> Ok i
    | _ -> Error (Printf.sprintf "missing int field %S" key)
  in
  let str key =
    match Json.member key j with
    | Some (Json.String s) -> Ok s
    | _ -> Error (Printf.sprintf "missing string field %S" key)
  in
  let bool key =
    match Json.member key j with
    | Some (Json.Bool b) -> Ok b
    | _ -> Error (Printf.sprintf "missing bool field %S" key)
  in
  (* absent in pre-span artifacts and on unattributed events *)
  let span = match Json.member "span" j with Some (Json.Int i) -> i | _ -> no_span in
  let* time = int "t" in
  let* ev = str "ev" in
  let* event =
    match ev with
    | "msg_sent" ->
        let* src = int "src" in
        let* dst = int "dst" in
        let* kind = str "kind" in
        Ok (Msg_sent { src; dst; kind; span })
    | "msg_delivered" ->
        let* src = int "src" in
        let* dst = int "dst" in
        let* kind = str "kind" in
        Ok (Msg_delivered { src; dst; kind; span })
    | "msg_dropped" ->
        let* src = int "src" in
        let* dst = int "dst" in
        let* kind = str "kind" in
        let* reason = str "reason" in
        Ok (Msg_dropped { src; dst; kind; reason; span })
    | "retransmit" ->
        let* label = int "label" in
        Ok (Retransmit { label })
    | "ack_roundtrip" ->
        let* label = int "label" in
        let* ticks = int "ticks" in
        Ok (Ack_roundtrip { label; ticks })
    | "quorum_formed" ->
        let* op_id = int "op_id" in
        let* client = int "client" in
        let* phase = str "phase" in
        let* size = int "size" in
        Ok (Quorum_formed { op_id; client; phase; size; span })
    | "label_adopted" ->
        let* server = int "server" in
        let* writer = int "writer" in
        let* ack = bool "ack" in
        Ok (Label_adopted { server; writer; ack })
    | "epoch_changed" ->
        let* node = int "node" in
        let* epoch = int "epoch" in
        let* what = str "what" in
        Ok (Epoch_changed { node; epoch; what })
    | "fault_injected" ->
        let* desc = str "desc" in
        Ok (Fault_injected { desc })
    | "op_started" ->
        let* op_id = int "op_id" in
        let* client = int "client" in
        let* kind = str "kind" in
        Ok (Op_started { op_id; client; kind; span })
    | "op_phase" ->
        let* op_id = int "op_id" in
        let* client = int "client" in
        let* phase = str "phase" in
        let* ticks = int "ticks" in
        Ok (Op_phase { op_id; client; phase; ticks; span })
    | "op_finished" ->
        let* op_id = int "op_id" in
        let* client = int "client" in
        let* kind = str "kind" in
        let* outcome = str "outcome" in
        let* ticks = int "ticks" in
        Ok (Op_finished { op_id; client; kind; outcome; ticks; span })
    | "violation" ->
        let* op_id = int "op_id" in
        let* kind = str "kind" in
        let* detail = str "detail" in
        Ok (Violation { op_id; kind; detail })
    | "server_state" ->
        let* server = int "server" in
        let* value = int "value" in
        let* ts = str "ts" in
        let* sting = int "sting" in
        let* hist_len = int "hist_len" in
        let* readers = int "readers" in
        Ok (Server_state { server; value; ts; sting; hist_len; readers })
    | "span_tag" ->
        let* span = int "span" in
        let* tag = str "tag" in
        let* v = int "v" in
        Ok (Span_tag { span; tag; v })
    | "alert" ->
        let* shard = int "shard" in
        let* rule = str "rule" in
        let* severity = str "severity" in
        let* detail = str "detail" in
        let* window = int "window" in
        Ok (Alert { shard; rule; severity; detail; window })
    | other -> Error (Printf.sprintf "unknown event name %S" other)
  in
  Ok (time, event)
