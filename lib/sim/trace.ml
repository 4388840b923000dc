type level = Off | Sampled | On | Forensic

let level_to_string = function
  | Off -> "off"
  | Sampled -> "sampled"
  | On -> "on"
  | Forensic -> "forensic"

let levels = [ Off; Sampled; On; Forensic ]

type sink = time:int -> Event.t -> unit

type t = { level : level; sample : float; sampler : Rng.t; mutable sinks : sink list }

let sample_seed = 0x5eedL

let create ?(sample = 0.01) ~level () =
  (* The sampler is private to the trace: drawing from it never
     perturbs the engine's master PRNG, so the simulation is
     bit-identical at every level and a sampled stream is a
     deterministic subsequence of the full one. *)
  { level; sample; sampler = Rng.create sample_seed; sinks = [] }

let add_sink t sink = t.sinks <- t.sinks @ [ sink ]

let admits t ~span =
  match (t.level, t.sinks) with
  | Off, _ | _, [] -> false
  | (On | Forensic), _ -> true
  | Sampled, _ ->
      (* Head sampling: a span's fate hashes from its id alone, so every
         layer that touches the operation agrees without coordination
         and the tree is recorded whole or not at all.  Span-less events
         draw the sampler in emit order. *)
      if span = Event.no_span then Rng.chance t.sampler t.sample
      else Rng.hash_float sample_seed span < t.sample

let rec to_sinks ~time ev = function
  | [] -> ()
  | sink :: rest ->
      sink ~time ev;
      to_sinks ~time ev rest

let emit t ~time ev = if t.level <> Off then to_sinks ~time ev t.sinks

let log t ~time msg =
  if t.level = Forensic then emit t ~time (Event.Note { detail = msg })

let logf t ~time fmt =
  if t.level = Forensic && t.sinks <> [] then Format.kasprintf (fun s -> log t ~time s) fmt
  else Format.ikfprintf (fun _ -> ()) Format.std_formatter fmt

let jsonl_sink oc ~time ev =
  output_string oc (Json.to_string (Event.to_json ~time ev));
  output_char oc '\n'
