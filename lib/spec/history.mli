(** Operation histories — the ground truth the checkers audit.

    Every client operation is recorded with its invocation and response
    times on the simulator's fictional global clock, exactly the
    device the paper uses to define precedence ([op ≺ op'] iff
    [t_E(op) < t_B(op')]) and concurrency.  Histories are polymorphic
    in the timestamp type ['ts] attached to writes, so the same checker
    audits the bounded-label protocol (['ts = Mw_ts.t]) and the
    integer-timestamp baselines.

    Checkers consume histories only: no protocol internals leak into
    the verdicts, so a buggy implementation cannot vouch for itself. *)

type read_outcome =
  | Value of int  (** read returned this value *)
  | Abort  (** read aborted (legal during the transitory phase) *)
  | Incomplete  (** client crashed or run ended before the response *)

type 'ts op =
  | Write of {
      id : int;
      client : int;
      value : int;
      inv : int;
      resp : int option;  (** [None]: failed (writer crashed) *)
      ts : 'ts option;  (** protocol timestamp, when the protocol exposes it *)
    }
  | Read of { id : int; client : int; inv : int; resp : int option; outcome : read_outcome }

type 'ts t

val create : unit -> 'ts t

val begin_write : 'ts t -> client:int -> value:int -> time:int -> int
(** Returns the operation id. *)

val end_write : 'ts t -> id:int -> time:int -> ts:'ts option -> unit

val begin_read : 'ts t -> client:int -> time:int -> int

val end_read : 'ts t -> id:int -> time:int -> outcome:read_outcome -> unit

val ops : 'ts t -> 'ts op list
(** All operations, in invocation order. Operations never completed
    appear with [resp = None] / [Incomplete]. *)

val writes : 'ts t -> 'ts op list

val size : 'ts t -> int

val completed_reads : 'ts t -> int
(** Reads that returned a value. *)

val aborted_reads : 'ts t -> int

val completed_writes : 'ts t -> int

val first_write_completion : 'ts t -> int option
(** Virtual time the earliest write completed, if any did — the
    pseudo-stabilization point the checkers audit from. *)

val pp : (Format.formatter -> 'ts -> unit) -> Format.formatter -> 'ts t -> unit
