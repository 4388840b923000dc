type read_outcome = Value of int | Abort | Incomplete

type 'ts op =
  | Write of {
      id : int;
      client : int;
      value : int;
      inv : int;
      resp : int option;
      ts : 'ts option;
    }
  | Read of { id : int; client : int; inv : int; resp : int option; outcome : read_outcome }

(* Operation ids are dense and sequential, so they double as array
   indices: completing an operation is an O(1) slot update instead of
   the O(n) whole-list rewrite the first implementation did (which made
   recording an n-op history O(n²) — measurable on 10k-op runs). *)
type 'ts t = { mutable data : 'ts op option array; mutable len : int }

let create () = { data = [||]; len = 0 }

let grow t =
  let cap = Array.length t.data in
  if t.len = cap then begin
    let nd = Array.make (max 16 (2 * cap)) None in
    Array.blit t.data 0 nd 0 t.len;
    t.data <- nd
  end

let append t op =
  grow t;
  t.data.(t.len) <- Some op;
  t.len <- t.len + 1

let begin_write t ~client ~value ~time =
  let id = t.len in
  append t (Write { id; client; value; inv = time; resp = None; ts = None });
  id

let end_write t ~id ~time ~ts =
  if id >= 0 && id < t.len then
    match t.data.(id) with
    | Some (Write w) -> t.data.(id) <- Some (Write { w with resp = Some time; ts })
    | _ -> ()

let begin_read t ~client ~time =
  let id = t.len in
  append t (Read { id; client; inv = time; resp = None; outcome = Incomplete });
  id

let end_read t ~id ~time ~outcome =
  if id >= 0 && id < t.len then
    match t.data.(id) with
    | Some (Read r) -> t.data.(id) <- Some (Read { r with resp = Some time; outcome })
    | _ -> ()

let ops t =
  let out = ref [] in
  for i = t.len - 1 downto 0 do
    match t.data.(i) with Some op -> out := op :: !out | None -> ()
  done;
  !out

let writes t = List.filter (function Write _ -> true | Read _ -> false) (ops t)

let size t = t.len

let completed_reads t =
  List.length
    (List.filter (function Read { outcome = Value _; _ } -> true | _ -> false) (ops t))

let aborted_reads t =
  List.length (List.filter (function Read { outcome = Abort; _ } -> true | _ -> false) (ops t))

let completed_writes t =
  List.length (List.filter (function Write { resp = Some _; _ } -> true | _ -> false) (ops t))

let first_write_completion t =
  List.fold_left
    (fun acc op ->
      match op with
      | Write { resp = Some r; _ } -> ( match acc with None -> Some r | Some a -> Some (min a r))
      | _ -> acc)
    None (ops t)

let pp pp_ts fmt t =
  let pp_resp fmt = function Some r -> Format.pp_print_int fmt r | None -> Format.pp_print_char fmt '?' in
  List.iter
    (function
      | Write w ->
          Format.fprintf fmt "[%d,%a] c%d write(%d)%a@\n" w.inv pp_resp w.resp w.client w.value
            (fun fmt -> function Some ts -> Format.fprintf fmt " ts=%a" pp_ts ts | None -> ())
            w.ts
      | Read r ->
          let outcome =
            match r.outcome with
            | Value v -> string_of_int v
            | Abort -> "abort"
            | Incomplete -> "incomplete"
          in
          Format.fprintf fmt "[%d,%a] c%d read() = %s@\n" r.inv pp_resp r.resp r.client outcome)
    (ops t)
