(** A uniform face over every register implementation in the
    repository, so one workload generator and one checker pipeline can
    drive the core protocol and all three baselines.

    Each adapter captures the underlying system; histories keep the
    implementation's native timestamp type internally and expose the
    checkers pre-applied. *)

type check = { checked : int; skipped : int; violations : int; detail : string list }

type t = {
  writer_clients : int list;  (** endpoints allowed to write *)
  reader_clients : int list;  (** endpoints allowed to read *)
  write : client:int -> value:int -> k:(unit -> unit) -> unit;
  read : client:int -> k:(Sbft_spec.History.read_outcome -> unit) -> unit;
  engine : Sbft_sim.Engine.t;
  quiesce : max_events:int -> unit;  (** may raise {!Sbft_sim.Engine.Budget_exhausted} *)
  check_regular : after:int -> unit -> check;  (** MWMR regularity *)
  check_safe : after:int -> unit -> check;  (** Lamport safety *)
  check_atomic : after:int -> unit -> check;  (** linearizability *)
  op_latencies : unit -> float array * float array;  (** (writes, reads), completed ops *)
  completed_reads : unit -> int;
  aborted_reads : unit -> int;
  completed_writes : unit -> int;
  first_write_completion : unit -> int option;
      (** virtual time the earliest write completed — the
          pseudo-stabilization point the checkers audit from *)
  messages_sent : unit -> int;
  max_ts_bits : unit -> int;  (** storage bits of the widest live timestamp *)
}

val core : Sbft_core.System.t -> t

val baseline : Sbft_baselines.Baseline.t -> t
(** Any of the three §V baselines; [Mr_safe]'s [writer_clients] is just
    endpoint [n]. *)
