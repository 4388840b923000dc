(* Every export has a reader.  A value declared in a [lib/**/*.mli]
   must be read somewhere in lib, bin or bench outside its own module,
   or be named in [export-seams.txt] as a test seam with a one-line
   reason.  The scan is textual, like the metric-name lint: comments and
   string literals are blanked first, then a value [v] of module [M]
   (or of its submodule [M.Sub]) is read by
   - a path [M.v], [Lib.M.v] or [M.Sub.v];
   - [A.v], where the file binds [module A = [Lib.]M];
   - an unqualified [v] in a file that opens [M] ([open M],
     [let open M in] or [M.( ... )]).
   Tests and examples are not readers.  The sources are the copies
   test/dune declares, under _build (the test runs from
   _build/default/test). *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let rec files_under dir suffix =
  Array.fold_left
    (fun acc entry ->
      let path = Filename.concat dir entry in
      if Sys.is_directory path then files_under path suffix @ acc
      else if Filename.check_suffix entry suffix then path :: acc
      else acc)
    [] (Sys.readdir dir)

(* The sources under [dir], failing when there are none: a lint that
   scans nothing must not pass. *)
let sources dir suffix =
  match if Sys.file_exists dir then files_under dir suffix else [] with
  | [] -> Alcotest.failf "no %s sources under %s to scan" suffix dir
  | files -> List.sort compare files

(* ------------------------------------------------------------------ *)
(* lexing *)

let is_ident_char c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false

(* [src] with every comment, string literal and character literal
   replaced by spaces (newlines kept). *)
let blank src =
  let n = String.length src in
  let out = Bytes.of_string src in
  let wipe i j =
    for k = i to Int.min (n - 1) (j - 1) do
      if Bytes.get out k <> '\n' then Bytes.set out k ' '
    done
  in
  (* end of the string literal opened at [i] ("..." or {id|...|id}) *)
  let string_end i =
    if src.[i] = '"' then (
      let j = ref (i + 1) in
      while !j < n && src.[!j] <> '"' do
        if src.[!j] = '\\' then incr j;
        incr j
      done;
      Int.min n (!j + 1))
    else
      let j = ref (i + 1) in
      while !j < n && src.[!j] <> '|' do incr j done;
      let close = "|" ^ String.sub src (i + 1) (!j - i - 1) ^ "}" in
      let m = String.length close in
      let k = ref (!j + 1) in
      while !k + m <= n && String.sub src !k m <> close do incr k done;
      Int.min n (!k + m)
  in
  let quoted_string_at i =
    src.[i] = '{'
    &&
    let j = ref (i + 1) in
    while !j < n && (match src.[!j] with 'a' .. 'z' | '_' -> true | _ -> false) do incr j done;
    !j < n && src.[!j] = '|'
  in
  let string_at i = src.[i] = '"' || quoted_string_at i in
  (* end of the character literal at [i], if one starts there *)
  let char_end i =
    if i > 0 && is_ident_char src.[i - 1] then None
    else if i + 2 < n && src.[i + 1] <> '\\' && src.[i + 2] = '\'' then Some (i + 3)
    else if i + 2 < n && src.[i + 1] = '\\' then (
      (* the escaped character, then up to three more, then the quote *)
      let j = ref (i + 3) in
      while !j < n && !j < i + 7 && src.[!j] <> '\'' do incr j done;
      if !j < n && src.[!j] = '\'' then Some (!j + 1) else None)
    else None
  in
  let comment_end i =
    let depth = ref 1 and j = ref (i + 2) in
    while !depth > 0 && !j < n do
      if !j + 1 < n && src.[!j] = '(' && src.[!j + 1] = '*' then (
        incr depth;
        j := !j + 2)
      else if !j + 1 < n && src.[!j] = '*' && src.[!j + 1] = ')' then (
        decr depth;
        j := !j + 2)
      else if string_at !j then j := string_end !j
      else if src.[!j] = '\'' then j := Option.value (char_end !j) ~default:(!j + 1)
      else incr j
    done;
    !j
  in
  let i = ref 0 in
  while !i < n do
    let c = src.[!i] in
    if c = '(' && !i + 1 < n && src.[!i + 1] = '*' then (
      let j = comment_end !i in
      wipe !i j;
      i := j)
    else if string_at !i then (
      let j = string_end !i in
      wipe !i j;
      i := j)
    else if c = '\'' then
      match char_end !i with
      | Some j ->
          wipe !i j;
          i := j
      | None -> incr i
    else incr i
  done;
  Bytes.to_string out

type token = Ident of string | Dot | Lparen | Other of char

let tokens src =
  let n = String.length src in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      match src.[i] with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1) acc
      | ('a' .. 'z' | 'A' .. 'Z' | '_') when i = 0 || not (is_ident_char src.[i - 1]) ->
          let j = ref i in
          while !j < n && is_ident_char src.[!j] do incr j done;
          go !j (Ident (String.sub src i (!j - i)) :: acc)
      | '.' -> go (i + 1) (Dot :: acc)
      | '(' -> go (i + 1) (Lparen :: acc)
      | c -> go (i + 1) (Other c :: acc)
  in
  go 0 []

let capitalized s = match s.[0] with 'A' .. 'Z' -> true | _ -> false

(* A module path [A.B.C] at the head of [toks], and what follows it. *)
let rec module_path toks =
  match toks with
  | Ident m :: Dot :: (Ident m' :: _ as rest) when capitalized m && capitalized m' ->
      let path, rest = module_path rest in
      (m :: path, rest)
  | Ident m :: rest when capitalized m -> ([ m ], rest)
  | _ -> ([], toks)

(* ------------------------------------------------------------------ *)
(* exports *)

let module_of_file path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* The values an interface declares, each as its full path
   ([Module; Sub; value]).  Submodules are [module Sub : sig ... end]. *)
let exports path =
  let rec go stack toks acc =
    match toks with
    | [] -> List.rev acc
    | Ident "module" :: Ident sub :: Other ':' :: Ident "sig" :: rest -> go (sub :: stack) rest acc
    | Ident "end" :: rest -> go (match stack with [] -> [] | _ :: s -> s) rest acc
    | Ident "val" :: Ident v :: rest ->
        go stack rest (((module_of_file path :: List.rev stack) @ [ v ]) :: acc)
    | _ :: rest -> go stack rest acc
  in
  go [] (tokens (blank (read_file path))) []

(* ------------------------------------------------------------------ *)
(* readers *)

let is_library m = String.length m > 5 && String.sub m 0 5 = "Sbft_"

(* The value paths a source file reads, each resolved through the
   file's module aliases and library prefixes, plus the modules the file
   opens and the unqualified lowercase names it uses. *)
type reads = { qualified : string list list; opens : string list list; names : string list }

let reads src =
  let toks = tokens (blank src) in
  let aliases = Hashtbl.create 8 in
  let rec resolve path =
    match path with
    | m :: rest when is_library m -> resolve rest
    | m :: rest when Hashtbl.mem aliases m -> Hashtbl.find aliases m @ rest
    | _ -> path
  in
  let rec go toks prev acc =
    match toks with
    | [] -> acc
    | Ident "module" :: Ident a :: Other '=' :: rest when capitalized a -> (
        match module_path rest with
        | [], _ -> go rest (Other ' ') acc
        | path, rest' ->
            Hashtbl.replace aliases a (resolve path);
            go rest' (Other ' ') acc)
    | Ident "open" :: rest -> (
        match module_path rest with
        | [], _ -> go rest (Other ' ') acc
        | path, rest' -> go rest' (Other ' ') { acc with opens = resolve path :: acc.opens })
    | Ident m :: _ when capitalized m && prev <> Dot -> (
        let path, rest = module_path toks in
        match rest with
        | Dot :: Ident v :: rest' when not (capitalized v) ->
            go rest' (Ident v) { acc with qualified = (resolve path @ [ v ]) :: acc.qualified }
        | Dot :: Lparen :: rest' -> go rest' Lparen { acc with opens = resolve path :: acc.opens }
        | _ -> go rest (Ident m) acc)
    | (Ident v as t) :: rest when prev <> Dot && not (capitalized v) ->
        go rest t { acc with names = v :: acc.names }
    | t :: rest -> go rest t acc
  in
  let r = go toks (Other ' ') { qualified = []; opens = []; names = [] } in
  { r with names = List.sort_uniq compare r.names }

(* Every full value path [reads] could stand for. *)
let candidates r =
  let opened =
    List.concat_map (fun o -> List.map (fun n -> o @ [ n ]) r.names) r.opens
    @ List.concat_map (fun o -> List.map (fun q -> o @ q) r.qualified) r.opens
  in
  r.qualified @ opened

(* The full paths of values with a reader among [files], keyed by path;
   a file is no reader of its own module's exports. *)
let read_paths files =
  let seen = Hashtbl.create 4096 in
  List.iter
    (fun file ->
      let own = module_of_file file in
      List.iter
        (fun path -> if List.hd path <> own then Hashtbl.replace seen path ())
        (candidates (reads (read_file file))))
    files;
  seen

(* ------------------------------------------------------------------ *)
(* the allowlist *)

let seams_file = "export-seams.txt"

(* [(line number, value path, reason)] for each non-blank, non-# line. *)
let seams () =
  String.split_on_char '\n' (read_file seams_file)
  |> List.mapi (fun i line -> (i + 1, String.trim line))
  |> List.filter (fun (_, line) -> line <> "" && line.[0] <> '#')
  |> List.map (fun (i, line) ->
         let name, reason =
           match String.index_opt line ' ' with
           | None -> (line, "")
           | Some k ->
               (String.sub line 0 k, String.trim (String.sub line k (String.length line - k)))
         in
         (i, String.split_on_char '.' name, reason))

let dotted = String.concat "."

let test_every_export_read () =
  let exported = List.concat_map exports (sources "../lib" ".mli") in
  let readers =
    read_paths (sources "../lib" ".ml" @ sources "../bin" ".ml" @ sources "../bench" ".ml")
  in
  let seams = seams () in
  let problems =
    List.concat_map
      (fun (line, path, reason) ->
        let at = Printf.sprintf "%s:%d: %s" seams_file line (dotted path) in
        (if List.mem path exported then [] else [ at ^ " is not an exported value" ])
        @ (if Hashtbl.mem readers path then [ at ^ " has a reader in lib, bin or bench" ] else [])
        @ if reason = "" then [ at ^ " gives no reason" ] else [])
      seams
  in
  let unread =
    List.filter
      (fun path ->
        (not (Hashtbl.mem readers path)) && not (List.exists (fun (_, p, _) -> p = path) seams))
      exported
  in
  Alcotest.(check bool) "some exports scanned" true (List.length exported > 100);
  if problems <> [] || unread <> [] then
    Alcotest.failf
      "%d of %d exported values have no reader in lib, bin or bench outside their own module \
       (delete, un-export, or list in %s as a test seam with a reason):\n  %s%s"
      (List.length unread) (List.length exported) seams_file
      (String.concat "\n  " (List.map dotted unread))
      (if problems = [] then "" else "\n" ^ String.concat "\n" problems)

let suite = [ Alcotest.test_case "every export has a reader" `Quick test_every_export_read ]
