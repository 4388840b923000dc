(** Protocol parameters.

    The paper's resilience bound is [n ≥ 5f + 1] (Theorem 1 shows
    [n ≤ 5f] is impossible for this protocol class); {!make} enforces
    it unless [allow_unsafe] is set, which experiment E9 uses to
    measure what actually breaks below the bound. *)

type t = private {
  n : int;  (** number of servers *)
  f : int;  (** upper bound on Byzantine servers *)
  clients : int;  (** number of client endpoints *)
  k : int;  (** bounded-labeling parameter; [>= n] so [next] dominates any reply set *)
  read_label_pool : int;  (** per-client read labels (≥ 2) *)
  history_depth : int;  (** length of each server's [old_vals] sliding window *)
  forward_to_readers : bool;
      (** Figure 1b's forwarding rule: servers push each adopted write
          to registered running readers.  On by default; the E13
          ablation switches it off to measure what the rule buys. *)
}

val make :
  ?k:int ->
  ?read_label_pool:int ->
  ?history_depth:int ->
  ?allow_unsafe:bool ->
  ?forward_to_readers:bool ->
  n:int ->
  f:int ->
  clients:int ->
  unit ->
  t
(** Defaults: [k = n], [read_label_pool = 3], [history_depth = n],
    [forward_to_readers = true].
    Raises [Invalid_argument] when [n < 5f + 1] (unless
    [allow_unsafe]), when [f < 0], [n < 1] or [clients < 1]. *)

val quorum : t -> int
(** [n - f]: replies awaited by every operation phase. *)

val witness_threshold : t -> int
(** [2f + 1]: witnesses a read needs before returning a value. *)

val server_ids : t -> int list
(** Endpoint ids [0 .. n-1]. *)

val client_ids : t -> int list
(** Endpoint ids [n .. n+clients-1]. *)

val endpoints : t -> int

val is_server : t -> int -> bool
