(** The metric handles the register automata record into.

    Each handle resolves at its first sample, so a histogram or counter
    appears in the metrics snapshot exactly when the string-keyed
    {!Sbft_sim.Metrics.record} or {!Sbft_sim.Metrics.incr} would have
    created it, while the per-operation path hashes no metric name.
    Every register built on one registry shares one set:
    {!System.create} takes it from {!shared} and passes it to its
    servers and clients. *)

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

val shared : Sbft_sim.Metrics.t -> t
(** The meters of the registry: the same value for every call on one
    domain until a call names another registry, a fresh set then.  The
    registers of a kv store share one engine, so they share one set of
    handles. *)
