(** The metric handles one register deployment's automata record into.

    Each handle resolves at its first sample, so a histogram or counter
    appears in the metrics snapshot exactly when the string-keyed
    {!Sbft_sim.Metrics.record} or {!Sbft_sim.Metrics.incr} would have
    created it, while the per-operation path hashes no metric name.
    {!System.create} makes one and shares it with its servers and
    clients. *)

type t = {
  write_collect : Sbft_sim.Metrics.hist Lazy.t;
  write_commit : Sbft_sim.Metrics.hist Lazy.t;
  write_total : Sbft_sim.Metrics.hist Lazy.t;
  read_flush : Sbft_sim.Metrics.hist Lazy.t;
  read_decide : Sbft_sim.Metrics.hist Lazy.t;
  read_total : Sbft_sim.Metrics.hist Lazy.t;
  read_abort : Sbft_sim.Metrics.hist Lazy.t;
  label_adoptions : Sbft_sim.Metrics.counter Lazy.t;
  label_rejections : Sbft_sim.Metrics.counter Lazy.t;
}

val create : Sbft_sim.Metrics.t -> t
