type level = Off | Sampled | On | Forensic

let level_to_string = function
  | Off -> "off"
  | Sampled -> "sampled"
  | On -> "on"
  | Forensic -> "forensic"

let levels = [ Off; Sampled; On; Forensic ]

type sink = time:int -> Event.t -> unit

type t = {
  level : level;
  sample : float;
  sampler : Rng.t;
  capacity : int;
  ring : (int * Event.t) array;
  mutable next : int;
  mutable count : int;
  mutable sinks : sink list;
}

let nothing = Event.Note { detail = "" }

let sample_seed = 0x5eedL

let create ?(capacity = 4096) ?(sample = 0.01) ~level () =
  {
    level;
    sample;
    (* The sampler is private to the trace: drawing from it never
       perturbs the engine's master PRNG, so the simulation is
       bit-identical at every level and a sampled stream is a
       deterministic subsequence of the full one. *)
    sampler = Rng.create sample_seed;
    capacity = max 1 capacity;
    ring = Array.make (max 1 capacity) (0, nothing);
    next = 0;
    count = 0;
    sinks = [];
  }

let level t = t.level

let enabled t = t.level <> Off

let forensic t = t.level = Forensic

let add_sink t sink = t.sinks <- t.sinks @ [ sink ]

let to_ring t ~time ev =
  t.ring.(t.next) <- (time, ev);
  t.next <- (t.next + 1) mod t.capacity;
  if t.count < t.capacity then t.count <- t.count + 1

let to_sinks t ~time ev =
  match t.sinks with
  | [] -> ()
  | sinks -> List.iter (fun sink -> sink ~time ev) sinks

let emit t ~time ev =
  match t.level with
  | Off -> ()
  | On | Forensic ->
      to_ring t ~time ev;
      to_sinks t ~time ev
  | Sampled ->
      (* The ring always retains the forensic window; only the sinks
         (JSONL streaming, analysis accumulators) are thinned.  The
         sampler advances once per emitted event, so whether any given
         event survives depends only on (sample_seed, emit index). *)
      to_ring t ~time ev;
      if Rng.chance t.sampler t.sample then to_sinks t ~time ev

let log t ~time msg =
  if t.level = Forensic then emit t ~time (Event.Note { detail = msg })

let logf t ~time fmt =
  if t.level = Forensic then Format.kasprintf (fun s -> log t ~time s) fmt
  else Format.ikfprintf (fun _ -> ()) Format.std_formatter fmt

let entries t =
  let out = ref [] in
  for i = 0 to t.count - 1 do
    let idx = (t.next - t.count + i + (2 * t.capacity)) mod t.capacity in
    out := t.ring.(idx) :: !out
  done;
  List.rev !out

let window t ~from_time ~until =
  List.filter (fun (time, _) -> time >= from_time && time <= until) (entries t)

let dump t fmt =
  List.iter (fun (time, ev) -> Format.fprintf fmt "[%d] %a@." time Event.pp ev) (entries t)

let jsonl_sink oc ~time ev =
  output_string oc (Json.to_string (Event.to_json ~time ev));
  output_char oc '\n'
