module Metrics = Sbft_sim.Metrics
module Names = Sbft_sim.Metric_names

type t = {
  write_collect : Metrics.hist Lazy.t;
  write_commit : Metrics.hist Lazy.t;
  write_total : Metrics.hist Lazy.t;
  read_flush : Metrics.hist Lazy.t;
  read_decide : Metrics.hist Lazy.t;
  read_total : Metrics.hist Lazy.t;
  read_abort : Metrics.hist Lazy.t;
  label_adoptions : Metrics.counter Lazy.t;
  label_rejections : Metrics.counter Lazy.t;
}

let create m =
  let hist name = lazy (Metrics.hist m name) and counter name = lazy (Metrics.counter m name) in
  {
    write_collect = hist Names.write_collect_ticks;
    write_commit = hist Names.write_commit_ticks;
    write_total = hist Names.write_total_ticks;
    read_flush = hist Names.read_flush_ticks;
    read_decide = hist Names.read_decide_ticks;
    read_total = hist Names.read_total_ticks;
    read_abort = hist Names.read_abort_ticks;
    label_adoptions = counter Names.server_label_adoptions;
    label_rejections = counter Names.server_label_rejections;
  }

(* The last registry [shared] served on this domain, with its meters.
   The ephemeron keeps neither alive: a finished run's registry can go. *)
let last : (Metrics.t, t) Ephemeron.K1.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let shared m =
  let last = Domain.DLS.get last in
  match Option.bind !last (fun e -> Ephemeron.K1.query e m) with
  | Some meters -> meters
  | None ->
      let meters = create m in
      last := Some (Ephemeron.K1.make m meters);
      meters
