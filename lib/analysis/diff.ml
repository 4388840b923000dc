module J = Sbft_sim.Json

type verdict = Ok | Warn | Fail

type row = { path : string; a : float option; b : float option; rel : float; verdict : verdict }

type report = { rows : row list; worst : verdict }

type tolerance = float

let tolerance t =
  if Float.is_finite t && t >= 0.0 then Stdlib.Ok t
  else Error (Printf.sprintf "--tolerance must be a finite number >= 0, got %g" t)

let severity = function Ok -> 0 | Warn -> 1 | Fail -> 2

let verdict_str = function Ok -> "ok" | Warn -> "WARN" | Fail -> "FAIL"

let label r =
  match (r.a, r.b) with None, _ -> "NEW" | _, None -> "GONE" | _ -> verdict_str r.verdict

(* exact-match keys: a difference is a verdict, not a measurement *)
let exact path = path = "regularity.violations"

(* Every Int/Float leaf as (dotted path, value), sorted by path, except
   inside lists, whose positional entries (per-node rows, bucket arrays,
   raw samples) churn with topology, and the wall-clock [profile]
   member, which differs from run to run. *)
let flatten j =
  let rec go prefix j acc =
    match (j : J.t) with
    | J.Obj kvs ->
        List.fold_left
          (fun acc (k, v) ->
            if prefix = "" && k = "profile" then acc
            else go (if prefix = "" then k else prefix ^ "." ^ k) v acc)
          acc kvs
    | J.Int i -> (prefix, float_of_int i) :: acc
    | J.Float f -> (prefix, f) :: acc
    | _ -> acc
  in
  List.sort_uniq (fun (p, _) (q, _) -> String.compare p q) (go "" j [])

let rel a b =
  if a = b then 0.0
  else Float.abs (a -. b) /. Float.max (Float.max (Float.abs a) (Float.abs b)) 1e-9

let both path x y ~tolerance =
  let rel = rel x y in
  let verdict =
    if exact path then if x = y then Ok else Fail
    else if rel <= tolerance then Ok
    else if rel <= 3.0 *. tolerance then Warn
    else Fail
  in
  { path; a = Some x; b = Some y; rel; verdict }

let one_side path a b = { path; a; b; rel = 0.0; verdict = Warn }

(* One merge over the two path-sorted lists. *)
let compare ?(tolerance = 0.2) a b =
  let rec walk acc fa fb =
    match (fa, fb) with
    | [], [] -> List.rev acc
    | (p, x) :: ra, [] -> walk (one_side p (Some x) None :: acc) ra []
    | [], (q, y) :: rb -> walk (one_side q None (Some y) :: acc) [] rb
    | (p, x) :: ra, (q, y) :: rb ->
        let c = String.compare p q in
        if c = 0 then walk (both p x y ~tolerance :: acc) ra rb
        else if c < 0 then walk (one_side p (Some x) None :: acc) ra fb
        else walk (one_side q None (Some y) :: acc) fa rb
  in
  let rows = walk [] (flatten a) (flatten b) in
  let worse acc r = if severity r.verdict > severity acc then r.verdict else acc in
  { rows; worst = List.fold_left worse Ok rows }

let pp_row fmt r =
  let v = function None -> "-" | Some x -> Printf.sprintf "%g" x in
  Format.fprintf fmt "%-4s %-44s %12s %12s %7.1f%%" (label r) r.path (v r.a) (v r.b)
    (100.0 *. r.rel)

let pp_rows fmt rows =
  Format.fprintf fmt "%-4s %-44s %12s %12s %8s@," "" "metric" "a" "b" "delta";
  List.iter (fun r -> Format.fprintf fmt "%a@," pp_row r) rows

let pp fmt rep =
  let bad = List.filter (fun r -> r.verdict <> Ok) rep.rows in
  let ok_count = List.length rep.rows - List.length bad in
  Format.fprintf fmt "@[<v>";
  if bad <> [] then pp_rows fmt bad;
  Format.fprintf fmt "%d metrics within tolerance, %d flagged; verdict: %s@]" ok_count
    (List.length bad) (verdict_str rep.worst)

let pp_full fmt rep =
  Format.fprintf fmt "@[<v>%averdict: %s@]" pp_rows rep.rows (verdict_str rep.worst)
