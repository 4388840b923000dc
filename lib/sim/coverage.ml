(* Coverage keys are interned to dense integer ids, one intern table
   per domain (via [Domain.DLS]), so a fuzz campaign's hot path —
   [observe] on every event of every schedule — is a couple of array
   and hashtable probes plus bitset writes, with no string allocation
   after warm-up.  Sets themselves are growable bitsets over the ids.

   Ids are private to the domain that minted them: two domains
   interning the same key strings in different orders assign different
   ids.  Every cross-domain exchange therefore goes through the key
   {e strings} ([keys], [add_key], or the slow path of [absorb]), which
   is exactly what the fuzzer's corpus-merge queue ships. *)

type intern = {
  ids : (string, int) Hashtbl.t; (* key string -> id *)
  mutable names : string array; (* id -> key string *)
  mutable next_id : int;
  memo1 : (string * string, int) Hashtbl.t;
  memo2 : (string * string * string, int) Hashtbl.t;
  bigram_memo : (int, int) Hashtbl.t; (* packed (prev, key) -> id *)
  occ : int array; (* eager occupancy-class ids: 8 x 6 x 6 *)
  retransmit_id : int;
  ack_rtt_id : int;
  adopt_ack_id : int;
  adopt_nack_id : int;
}

let intern_key st s =
  match Hashtbl.find_opt st.ids s with
  | Some id -> id
  | None ->
      let id = st.next_id in
      st.next_id <- id + 1;
      if id >= Array.length st.names then begin
        let nn = Array.make (max 16 (2 * Array.length st.names)) "" in
        Array.blit st.names 0 nn 0 (Array.length st.names);
        st.names <- nn
      end;
      st.names.(id) <- s;
      Hashtbl.add st.ids s id;
      id

let make_intern () =
  let st =
    {
      ids = Hashtbl.create 512;
      names = Array.make 512 "";
      next_id = 0;
      memo1 = Hashtbl.create 128;
      memo2 = Hashtbl.create 128;
      bigram_memo = Hashtbl.create 1024;
      occ = Array.make (8 * 6 * 6) 0;
      retransmit_id = 0;
      ack_rtt_id = 0;
      adopt_ack_id = 0;
      adopt_nack_id = 0;
    }
  in
  (* label-space occupancy classes: 8 sting residues x 6 x 6 buckets,
     interned eagerly so [id_of_event] never formats a string *)
  for i = 0 to (8 * 6 * 6) - 1 do
    st.occ.(i) <-
      intern_key st
        (Printf.sprintf "occ:%d:%d:%d" (i / 36) (i mod 36 / 6) (i mod 6))
  done;
  let retransmit_id = intern_key st "retransmit" in
  let ack_rtt_id = intern_key st "ack_rtt" in
  let adopt_ack_id = intern_key st "adopt:ack" in
  let adopt_nack_id = intern_key st "adopt:nack" in
  { st with retransmit_id; ack_rtt_id; adopt_ack_id; adopt_nack_id }

(* One intern table per domain: module-level hashtables would race (and
   corrupt) under Domain-parallel fuzz campaigns. *)
let intern_dls = Domain.DLS.new_key make_intern
let current_intern () = Domain.DLS.get intern_dls

let intern1 st prefix component =
  let k = (prefix, component) in
  match Hashtbl.find_opt st.memo1 k with
  | Some id -> id
  | None ->
      let id = intern_key st (prefix ^ component) in
      Hashtbl.add st.memo1 k id;
      id

let intern2 st prefix a b =
  let k = (prefix, a, b) in
  match Hashtbl.find_opt st.memo2 k with
  | Some id -> id
  | None ->
      let id = intern_key st (prefix ^ a ^ ":" ^ b) in
      Hashtbl.add st.memo2 k id;
      id

(* Bucket a non-negative magnitude into a coarse logarithmic class so
   the key space stays finite while still separating "empty", "a few"
   and "many". *)
let bucket v =
  if v <= 0 then 0
  else if v <= 1 then 1
  else if v <= 3 then 2
  else if v <= 7 then 3
  else if v <= 15 then 4
  else 5

let id_of_event st (ev : Event.t) =
  match ev with
  | Event.Msg_sent { kind; _ } -> intern1 st "sent:" kind
  | Event.Msg_delivered { kind; _ } -> intern1 st "dlvr:" kind
  | Event.Msg_dropped { kind; reason; _ } -> intern2 st "drop:" kind reason
  | Event.Retransmit _ -> st.retransmit_id
  | Event.Ack_roundtrip _ -> st.ack_rtt_id
  | Event.Quorum_formed { phase; _ } -> intern1 st "quorum:" phase
  | Event.Label_adopted { ack; _ } -> if ack then st.adopt_ack_id else st.adopt_nack_id
  | Event.Epoch_changed { what; _ } -> intern1 st "epoch:" what
  | Event.Fault_injected { desc } ->
      (* keep the fault kind, drop the per-event parameters *)
      let head =
        match String.index_opt desc ' ' with
        | Some i -> String.sub desc 0 i
        | None -> desc
      in
      intern1 st "fault:" head
  | Event.Op_started { kind; _ } -> intern1 st "op:" kind
  | Event.Op_phase { phase; _ } -> intern1 st "phase:" phase
  | Event.Op_finished { kind; outcome; _ } -> intern2 st "fin:" kind outcome
  | Event.Violation { kind; _ } -> intern1 st "violation:" kind
  | Event.Server_state { sting; hist_len; readers; _ } ->
      (* label-space occupancy class: where the sting sits in the
         universe (mod a fixed fan-out) x history depth x reader load *)
      st.occ.(((sting land 7) * 36) + (bucket hist_len * 6) + bucket readers)
  | Event.Span_tag { tag; _ } -> intern1 st "tag:" tag
  | Event.Alert { rule; _ } -> intern1 st "alert:" rule

(* Bigrams are formed from unigram ids only; the id space stays far
   below 2^30, so a single packed int indexes the memo. *)
let bigram_id st prev id =
  let packed = (prev lsl 30) lor id in
  match Hashtbl.find_opt st.bigram_memo packed with
  | Some bid -> bid
  | None ->
      let bid = intern_key st (st.names.(prev) ^ ">" ^ st.names.(id)) in
      Hashtbl.add st.bigram_memo packed bid;
      bid

type t = {
  st : intern; (* the minting domain's intern table *)
  mutable bits : Bytes.t;
  mutable card : int;
  mutable prev : int; (* last unigram id, -1 = none *)
}

let create () =
  { st = current_intern (); bits = Bytes.make 128 '\000'; card = 0; prev = -1 }

let reset t =
  Bytes.fill t.bits 0 (Bytes.length t.bits) '\000';
  t.card <- 0;
  t.prev <- -1

let ensure t id =
  let need = (id lsr 3) + 1 in
  if need > Bytes.length t.bits then begin
    let nb = Bytes.make (max need (2 * Bytes.length t.bits)) '\000' in
    Bytes.blit t.bits 0 nb 0 (Bytes.length t.bits);
    t.bits <- nb
  end

let add_id t id =
  ensure t id;
  let byte = id lsr 3 and bit = 1 lsl (id land 7) in
  let v = Char.code (Bytes.unsafe_get t.bits byte) in
  if v land bit = 0 then begin
    Bytes.unsafe_set t.bits byte (Char.unsafe_chr (v lor bit));
    t.card <- t.card + 1;
    true
  end
  else false

let observe t ev =
  let id = id_of_event t.st ev in
  ignore (add_id t id : bool);
  if t.prev >= 0 then ignore (add_id t (bigram_id t.st t.prev id) : bool);
  t.prev <- id

let of_events events =
  let t = create () in
  List.iter (fun ((_ : int), ev) -> observe t ev) events;
  t

let cardinal t = t.card

let iter_ids t f =
  for byte = 0 to Bytes.length t.bits - 1 do
    let v = Char.code (Bytes.unsafe_get t.bits byte) in
    if v <> 0 then
      for bit = 0 to 7 do
        if v land (1 lsl bit) <> 0 then f ((byte lsl 3) lor bit)
      done
  done

let keys t =
  let acc = ref [] in
  iter_ids t (fun id -> acc := t.st.names.(id) :: !acc);
  List.sort String.compare !acc

let add_key t key = add_id t (intern_key t.st key)

let popcount_byte =
  Array.init 256 (fun i ->
      let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + (v land 1)) in
      go i 0)

let absorb ~into t =
  if into.st == t.st then begin
    (* same domain: pure bitset union, counting fresh bits *)
    if Bytes.length t.bits > Bytes.length into.bits then
      ensure into ((Bytes.length t.bits lsl 3) - 1);
    let fresh = ref 0 in
    for byte = 0 to Bytes.length t.bits - 1 do
      let src = Char.code (Bytes.unsafe_get t.bits byte) in
      if src <> 0 then begin
        let dst = Char.code (Bytes.unsafe_get into.bits byte) in
        let diff = src land lnot dst land 0xff in
        if diff <> 0 then begin
          Bytes.unsafe_set into.bits byte (Char.unsafe_chr (dst lor src));
          fresh := !fresh + popcount_byte.(diff)
        end
      end
    done;
    into.card <- into.card + !fresh;
    !fresh
  end
  else begin
    (* cross-domain: ids differ, translate through the key strings *)
    let fresh = ref 0 in
    iter_ids t (fun id -> if add_key into t.st.names.(id) then incr fresh);
    !fresh
  end

let absorb_keys ~into t =
  let fresh = ref [] in
  if into.st == t.st then
    iter_ids t (fun id -> if add_id into id then fresh := t.st.names.(id) :: !fresh)
  else
    iter_ids t (fun id ->
        let name = t.st.names.(id) in
        if add_key into name then fresh := name :: !fresh);
  List.sort String.compare !fresh
