type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else if not (Float.is_finite f) then
    (* JSON has no NaN or infinity literals; [1e999] overflows to
       infinity in our own parser but standard parsers reject it, so
       all three non-finite values degrade to null uniformly. *)
    "null"
  else
    (* shortest representation that round-trips *)
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (float_repr f)
  | String s -> escape b s
  | List l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          write b v)
        l;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          escape b k;
          Buffer.add_char b ':';
          write b v)
        kvs;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parser — recursive descent over the string, enough for reading back
   the artifacts this module writes. *)

exception Parse_error of string

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let fail c msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> fail c (Printf.sprintf "expected %c" ch)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c (Printf.sprintf "expected %s" word)

(* UTF-8 encode one Unicode scalar value. *)
let add_utf8 b code =
  if code < 0x80 then Buffer.add_char b (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse_string_body c =
  let b = Buffer.create 16 in
  let hex4 () =
    if c.pos + 4 > String.length c.src then fail c "bad \\u escape";
    let hex = String.sub c.src c.pos 4 in
    c.pos <- c.pos + 4;
    match int_of_string_opt ("0x" ^ hex) with
    | Some code -> code
    | None -> fail c "bad \\u escape"
  in
  let rec go () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        match peek c with
        | Some '"' -> advance c; Buffer.add_char b '"'; go ()
        | Some '\\' -> advance c; Buffer.add_char b '\\'; go ()
        | Some '/' -> advance c; Buffer.add_char b '/'; go ()
        | Some 'n' -> advance c; Buffer.add_char b '\n'; go ()
        | Some 'r' -> advance c; Buffer.add_char b '\r'; go ()
        | Some 't' -> advance c; Buffer.add_char b '\t'; go ()
        | Some 'b' -> advance c; Buffer.add_char b '\b'; go ()
        | Some 'f' -> advance c; Buffer.add_char b '\012'; go ()
        | Some 'u' ->
            advance c;
            let code = hex4 () in
            (* A high surrogate must pair with a following \uDC00-\uDFFF
               low surrogate; decode the pair into one scalar value. *)
            if code >= 0xD800 && code <= 0xDBFF then begin
              if
                c.pos + 6 <= String.length c.src
                && c.src.[c.pos] = '\\'
                && c.src.[c.pos + 1] = 'u'
              then begin
                c.pos <- c.pos + 2;
                let low = hex4 () in
                if low >= 0xDC00 && low <= 0xDFFF then
                  add_utf8 b (0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00))
                else fail c "unpaired surrogate"
              end
              else fail c "unpaired surrogate"
            end
            else if code >= 0xDC00 && code <= 0xDFFF then fail c "unpaired surrogate"
            else add_utf8 b code;
            go ()
        | _ -> fail c "bad escape")
    | Some ch ->
        advance c;
        Buffer.add_char b ch;
        go ()
  in
  go ();
  Buffer.contents b

let parse_number c =
  let start = c.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek c with Some ch -> is_num_char ch | None -> false) do
    advance c
  done;
  let s = String.sub c.src start (c.pos - start) in
  match int_of_string_opt s with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt s with Some f -> Float f | None -> fail c "bad number")

let rec parse_value c =
  skip_ws c;
  match peek c with
  | Some 'n' -> literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some '"' ->
      advance c;
      String (parse_string_body c)
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin advance c; List [] end
      else begin
        let rec items acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' -> advance c; items (v :: acc)
          | Some ']' -> advance c; List (List.rev (v :: acc))
          | _ -> fail c "expected , or ]"
        in
        items []
      end
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin advance c; Obj [] end
      else begin
        let rec members acc =
          skip_ws c;
          expect c '"';
          let k = parse_string_body c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' -> advance c; members ((k, v) :: acc)
          | Some '}' -> advance c; Obj (List.rev ((k, v) :: acc))
          | _ -> fail c "expected , or }"
        in
        members []
      end
  | Some ('-' | '0' .. '9') -> parse_number c
  | _ -> fail c "unexpected character"

let of_string s =
  let c = { src = s; pos = 0 } in
  try
    let v = parse_value c in
    skip_ws c;
    if c.pos <> String.length s then Error (Printf.sprintf "trailing input at offset %d" c.pos)
    else Ok v
  with Parse_error msg -> Error msg

let of_file path =
  let named e = if String.starts_with ~prefix:path e then e else path ^ ": " ^ e in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error (named e)
  | s -> Result.map_error named (of_string s)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None
