(* A/B runner for the repository benchmark.

     ab.exe --base REV --change REV [--workloads W,...] [--seeds S,...]
            [--pairs N] [--seconds T] [--work DIR] [--what TEXT] [--out FILE]

   Run from the repository root.  Each commit is unpacked with
   `git archive` into its own fresh directory under --work and built
   there, so neither side sees the working tree or the other's build.
   Then, for every workload and seed, it runs N alternating pairs of
   BENCHMARK.json's command (pair i runs the base first when i is odd,
   the change first when it is even) and writes, for each end-to-end
   metric, both sides' samples, quartiles, the median ratio and the
   number of pairs the change wins.  The JSON is rewritten after every
   row, so an interrupted campaign keeps what it measured.

   Defaults: every workload of BENCHMARK.json, seeds 24 and 25, 10
   pairs, BENCHMARK.json's run_seconds, --work _ab, --out ab.json. *)

module J = Sbft_sim.Json

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("ab: " ^ s);
      exit 1)
    fmt

let ok_or_die = function Ok v -> v | Error e -> die "%s" e

(* [argv] run in [cwd]; its exit status and standard output (standard
   error passes through). *)
let capture ~cwd argv =
  let script = "cd \"$0\" && exec \"$@\"" in
  let ic = Unix.open_process_args_in "/bin/sh" (Array.append [| "sh"; "-c"; script; cwd |] argv) in
  let out = In_channel.input_all ic in
  (Unix.close_process_in ic, out)

let sh fmt =
  Printf.ksprintf
    (fun cmd -> if Sys.command cmd <> 0 then die "command failed: %s" cmd)
    fmt

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json *)

type bench = {
  command : string list;
  run_seconds : float;
  workloads : string list;
  metrics : (string * string) list;  (** end-to-end metric, "higher" or "lower" *)
}

let bench_of_file path =
  let j = ok_or_die (J.of_file path) in
  let field name = match J.member name j with Some v -> v | None -> die "%s: no %S" path name in
  let str = function J.String s -> s | _ -> die "%s: expected a string" path in
  let list = function J.List l -> l | _ -> die "%s: expected a list" path in
  let num = function J.Int i -> float_of_int i | J.Float f -> f | _ -> die "%s: expected a number" path in
  let member name o = match J.member name o with Some v -> v | None -> die "%s: no %S" path name in
  {
    command = List.map str (list (field "command"));
    run_seconds = num (field "run_seconds");
    workloads = List.map (fun w -> str (member "name" w)) (list (field "workloads"));
    metrics =
      List.map
        (fun m -> (str (member "name" m), str (member "better" m)))
        (list (field "end_to_end"));
  }

(* ------------------------------------------------------------------ *)
(* One run *)

type run = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;  (** end-to-end metrics of the result line *)
  digest : (string * string) list;  (** the printed [sim.*] lines *)
}

let parse_run ~what out =
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' out) in
  let last = match List.rev lines with l :: _ -> l | [] -> die "%s: no output" what in
  let j = ok_or_die (Result.map_error (fun e -> what ^ ": result line: " ^ e) (J.of_string last)) in
  let int name = match J.member name j with Some (J.Int i) -> i | _ -> die "%s: no %S" what name in
  let values =
    match J.member "metrics" j with
    | Some (J.Obj ms) ->
        List.filter_map
          (fun (name, m) ->
            match J.member "value" m with
            | Some (J.Int i) -> Some (name, float_of_int i)
            | Some (J.Float f) -> Some (name, f)
            | _ -> None)
          ms
    | _ -> die "%s: no metrics" what
  in
  let digest =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | name :: value :: _ when String.starts_with ~prefix:"sim." name -> Some (name, value)
        | _ -> None)
      lines
  in
  {
    correct = J.member "correct" j = Some (J.Bool true);
    attempted = int "attempted";
    failed = int "failed";
    values;
    digest;
  }

type side = { name : string; rev : string; commit : string; dir : string }

let prepare ~work ~bench ~name rev =
  let status, out = capture ~cwd:"." [| "git"; "rev-parse"; "--verify"; rev ^ "^{commit}" |] in
  if status <> Unix.WEXITED 0 then die "%s: not a commit" rev;
  let commit = String.trim out in
  (* one directory per side, so an A/A comparison gets two builds too *)
  let dir = Filename.concat work (name ^ "-" ^ commit) in
  if Sys.file_exists dir then sh "rm -rf %s" (Filename.quote dir);
  sh "mkdir -p %s" (Filename.quote dir);
  sh "git archive %s | tar -x -C %s" (Filename.quote commit) (Filename.quote dir);
  (* The first run builds the checkout; a tiny round keeps it short. *)
  Printf.eprintf "ab: building %s (%s) in %s\n%!" name rev dir;
  let w = match bench.workloads with w :: _ -> w | [] -> die "BENCHMARK.json: no workloads" in
  let status, _ =
    capture ~cwd:dir
      (Array.of_list (bench.command @ [ "--workload"; w; "--seconds"; "0"; "--scale"; "0.01" ]))
  in
  if status <> Unix.WEXITED 0 then die "%s: the benchmark does not build or run" rev;
  { name; rev; commit; dir }

let run_once ~bench ~seconds side ~workload ~seed =
  let args = [ "--workload"; workload; "--seed"; string_of_int seed; "--seconds"; seconds ] in
  let what = Printf.sprintf "%s %s seed %d" side.name workload seed in
  let status, out = capture ~cwd:side.dir (Array.of_list (bench.command @ args)) in
  (match status with
  | Unix.WEXITED (0 | 1) -> () (* 1: a failed correctness check, kept in [correct] *)
  | _ -> die "%s: the benchmark exited abnormally" what);
  parse_run ~what out

(* ------------------------------------------------------------------ *)
(* Statistics *)

(* Quartile [p] of [xs] by linear interpolation between order
   statistics. *)
let quantile xs p =
  let a = Array.of_list (List.sort compare xs) in
  let pos = p *. float_of_int (Array.length a - 1) in
  let i = int_of_float pos in
  let frac = pos -. float_of_int i in
  if i + 1 >= Array.length a then a.(i) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let quartiles xs = (quantile xs 0.25, quantile xs 0.5, quantile xs 0.75)

(* five significant digits: more than the runs agree to *)
let sig5 x = float_of_string (Printf.sprintf "%.5g" x)

let floats xs = J.List (List.map (fun x -> J.Float (sig5 x)) xs)

let metric_row ~better ~base ~change =
  let bq1, bmed, bq3 = quartiles base and cq1, cmed, cq3 = quartiles change in
  let beats c b = if better = "higher" then c > b else c < b in
  let wins = List.length (List.filter Fun.id (List.map2 beats change base)) in
  let iqr = bq3 -. bq1 in
  let gap = Float.abs (cmed -. bmed) in
  let pairs = List.length base in
  J.Obj
    [
      ("better", J.String better);
      ("base_q", floats [ bq1; bmed; bq3 ]);
      ("change_q", floats [ cq1; cmed; cq3 ]);
      ("median_ratio", J.Float (sig5 (cmed /. bmed)));
      ("wins", J.Int wins);
      ("claim_rule", J.Bool (10 * wins >= 9 * pairs && beats cmed bmed && gap > iqr));
      ("base", floats base);
      ("change", floats change);
    ]

(* ------------------------------------------------------------------ *)
(* Pretty JSON: one member per line, scalar lists inline. *)

let rec pp_json buf ~indent = function
  | J.Obj [] -> Buffer.add_string buf "{}"
  | J.Obj members ->
      let pad = String.make (indent + 1) ' ' in
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf pad;
          Buffer.add_string buf (J.to_string (J.String k));
          Buffer.add_string buf ": ";
          pp_json buf ~indent:(indent + 1) v)
        members;
      Buffer.add_string buf ("\n" ^ String.make indent ' ' ^ "}")
  | J.List items when List.exists (function J.Obj _ | J.List _ -> true | _ -> false) items ->
      let pad = String.make (indent + 1) ' ' in
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf pad;
          pp_json buf ~indent:(indent + 1) v)
        items;
      Buffer.add_string buf ("\n" ^ String.make indent ' ' ^ "]")
  | v -> Buffer.add_string buf (J.to_string v)

let write_json path j =
  let buf = Buffer.create 4096 in
  pp_json buf ~indent:0 j;
  Buffer.add_char buf '\n';
  Out_channel.with_open_text path (fun oc -> Buffer.output_buffer oc buf)

(* ------------------------------------------------------------------ *)

let row ~bench ~seconds ~pairs base change ~workload ~seed =
  let run side = run_once ~bench ~seconds side ~workload ~seed in
  (* [List.init] evaluates left to right, so pairs run in order *)
  let runs =
    List.init pairs (fun i ->
        let pair =
          if i mod 2 = 0 then
            let b = run base in
            (b, run change)
          else
            let c = run change in
            (run base, c)
        in
        Printf.eprintf "ab: %s seed %d pair %d/%d done\n%!" workload seed (i + 1) pairs;
        pair)
  in
  let base_runs = List.map fst runs and change_runs = List.map snd runs in
  let first = List.hd base_runs and first_c = List.hd change_runs in
  let stable rs = List.for_all (fun r -> r.digest = (List.hd rs).digest) rs in
  let digest_diff =
    List.filter_map
      (fun (k, v) ->
        match List.assoc_opt k first_c.digest with
        | Some v' when v' = v -> None
        | v' -> Some (k, J.List [ J.String v; (match v' with Some s -> J.String s | None -> J.Null) ]))
      first.digest
  in
  let value name r =
    match List.assoc_opt name r.values with
    | Some v -> v
    | None -> die "%s seed %d: no %s in the result line" workload seed name
  in
  J.Obj
    [
      ("workload", J.String workload);
      ("seed", J.Int seed);
      ("pairs", J.Int pairs);
      ("attempted", J.List [ J.Int first.attempted; J.Int first_c.attempted ]);
      ("failed", J.List [ J.Int first.failed; J.Int first_c.failed ]);
      ("all_correct", J.Bool (List.for_all (fun r -> r.correct) (base_runs @ change_runs)));
      ("digest_stable", J.List [ J.Bool (stable base_runs); J.Bool (stable change_runs) ]);
      ("digest_diff", J.Obj digest_diff);
      ( "metrics",
        J.Obj
          (List.map
             (fun (name, better) ->
               ( name,
                 metric_row ~better ~base:(List.map (value name) base_runs)
                   ~change:(List.map (value name) change_runs) ))
             bench.metrics) );
    ]

let () =
  let base = ref "" and change = ref "" and workloads = ref "" and seeds = ref "24,25" in
  let pairs = ref 10 and seconds = ref "" and work = ref "_ab" and what = ref "" in
  let out = ref "ab.json" in
  let spec =
    [
      ("--base", Arg.Set_string base, "REV  the commit measured against");
      ("--change", Arg.Set_string change, "REV  the commit under test");
      ("--workloads", Arg.Set_string workloads, "W,...  default: every BENCHMARK.json workload");
      ("--seeds", Arg.Set_string seeds, "S,...  default 24,25");
      ("--pairs", Arg.Set_int pairs, "N  alternating pairs per workload and seed (default 10)");
      ("--seconds", Arg.Set_string seconds, "T  per run (default: BENCHMARK.json's run_seconds)");
      ("--work", Arg.Set_string work, "DIR  where the checkouts go (default _ab)");
      ("--what", Arg.Set_string what, "TEXT  what the comparison is, recorded in the output");
      ("--out", Arg.Set_string out, "FILE  the JSON written (default ab.json)");
    ]
  in
  Arg.parse spec (fun a -> die "unexpected argument %S" a) "ab.exe --base REV --change REV [options]";
  if !base = "" || !change = "" then die "--base and --change are required";
  if !pairs < 1 then die "--pairs must be at least 1";
  let bench = bench_of_file "BENCHMARK.json" in
  let split s = List.filter (( <> ) "") (String.split_on_char ',' s) in
  let workloads = if !workloads = "" then bench.workloads else split !workloads in
  List.iter
    (fun w -> if not (List.mem w bench.workloads) then die "unknown workload %S" w)
    workloads;
  let seeds =
    List.map
      (fun s -> match int_of_string_opt s with Some i -> i | None -> die "bad seed %S" s)
      (split !seeds)
  in
  let seconds =
    if !seconds <> "" then !seconds else Printf.sprintf "%g" bench.run_seconds
  in
  let work = if Filename.is_relative !work then Filename.concat (Sys.getcwd ()) !work else !work in
  let base = prepare ~work ~bench ~name:"base" !base in
  let change = prepare ~work ~bench ~name:"change" !change in
  let side s = J.Obj [ ("rev", J.String s.rev); ("commit", J.String s.commit) ] in
  let doc rows =
    J.Obj
      [
        ("what", J.String !what);
        ( "command",
          J.String
            (String.concat " " bench.command
            ^ Printf.sprintf " --workload W --seed S --seconds %s, each side built in its own \
                              git archive checkout" seconds) );
        ("base", side base);
        ("change", side change);
        ("order", J.String "pair i runs the base first when i is odd and the change first when it is even");
        ( "fields",
          J.String
            "*_q = [q1, median, q3] (linear interpolation); median_ratio = change / base; wins = \
             pairs the change is better in (ties count for neither); claim_rule = wins in at \
             least 9 of 10 pairs and medians further apart, in the better direction, than the \
             base's IQR; digest_stable = every run of that side printed the same sim.* lines; \
             digest_diff = sim.* lines that differ between the sides, [base, change]" );
        ("rows", J.List (List.rev rows));
      ]
  in
  let rows = ref [] in
  List.iter
    (fun workload ->
      List.iter
        (fun seed ->
          rows := row ~bench ~seconds ~pairs:!pairs base change ~workload ~seed :: !rows;
          write_json !out (doc !rows))
        seeds)
    workloads;
  Printf.eprintf "ab: wrote %s\n%!" !out
