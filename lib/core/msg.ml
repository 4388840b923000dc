module Mw_ts = Sbft_labels.Mw_ts
module Sbls = Sbft_labels.Sbls

type ts = Mw_ts.t

type hist_entry = { value : int; ts : ts }

type t =
  | Get_ts
  | Ts_reply of { ts : ts }
  | Write_req of { value : int; ts : ts }
  | Write_ack of { ts : ts; ack : bool }
  | Read_req of { label : int }
  | Reply of { value : int; ts : ts; old : hist_entry list; label : int }
  | Complete_read of { label : int }
  | Flush of { label : int }
  | Flush_ack of { label : int }

let kind = function
  | Get_ts -> 0
  | Ts_reply _ -> 1
  | Write_req _ -> 2
  | Write_ack _ -> 3
  | Read_req _ -> 4
  | Reply _ -> 5
  | Complete_read _ -> 6
  | Flush _ -> 7
  | Flush_ack _ -> 8

let kind_names =
  [|
    "get_ts";
    "ts_reply";
    "write_req";
    "write_ack";
    "read_req";
    "reply";
    "complete_read";
    "flush";
    "flush_ack";
  |]

let garbage sys rng =
  let open Sbft_sim.Rng in
  let gts () = Mw_ts.random_garbage sys rng in
  let glabel () = int_in rng (-2) 8 in
  let gvalue () = int_in rng (-1000) 1000 in
  match int rng 9 with
  | 0 -> Get_ts
  | 1 -> Ts_reply { ts = gts () }
  | 2 -> Write_req { value = gvalue (); ts = gts () }
  | 3 -> Write_ack { ts = gts (); ack = bool rng }
  | 4 -> Read_req { label = glabel () }
  | 5 ->
      let old = List.init (int rng 4) (fun _ -> { value = gvalue (); ts = gts () }) in
      Reply { value = gvalue (); ts = gts (); old; label = glabel () }
  | 6 -> Complete_read { label = glabel () }
  | 7 -> Flush { label = glabel () }
  | _ -> Flush_ack { label = glabel () }

let pp fmt = function
  | Get_ts -> Format.fprintf fmt "GET_TS"
  | Ts_reply { ts } -> Format.fprintf fmt "TS_REPLY(%a)" Mw_ts.pp ts
  | Write_req { value; ts } -> Format.fprintf fmt "WRITE(%d,%a)" value Mw_ts.pp ts
  | Write_ack { ts; ack } -> Format.fprintf fmt "%s(%a)" (if ack then "ACK" else "NACK") Mw_ts.pp ts
  | Read_req { label } -> Format.fprintf fmt "READ(l%d)" label
  | Reply { value; ts; old; label } ->
      Format.fprintf fmt "REPLY(%d,%a,|old|=%d,l%d)" value Mw_ts.pp ts (List.length old) label
  | Complete_read { label } -> Format.fprintf fmt "COMPLETE_READ(l%d)" label
  | Flush { label } -> Format.fprintf fmt "FLUSH(l%d)" label
  | Flush_ack { label } -> Format.fprintf fmt "FLUSH_ACK(l%d)" label
