(** Bounded read-label bookkeeping (client side of Figure 3).

    Each client identifies its read operations with labels drawn from a
    small fixed pool [{0 .. k-1}].  Because labels are reused, the
    client must be sure no stale reply carrying the chosen label can
    still arrive; it tracks, per server and label, whether that server
    may still be processing an operation so labeled — the paper's
    [recent_labels] n × k boolean matrix — and uses the FLUSH echo
    (exploiting channel FIFOness) to clear uncertainty.  This module is
    the pure bookkeeping; the FLUSH message exchange lives in the
    protocol layer. *)

type t

val create : servers:int -> pool:int -> t
(** [pool >= 2] labels, matrix over [servers] rows. *)

val choose : t -> int
(** Label for the next read: different from the last one returned,
    preferring the label with fewest pending servers. Marks it as the
    last used. *)

val last : t -> int

val mark_pending : t -> server:int -> label:int -> unit
(** Server was sent a message tagged [label] and has not yet echoed. *)

val clear_pending : t -> server:int -> label:int -> unit
(** Server echoed (REPLY or FLUSH_ACK) for [label]. *)

val pending_count : t -> label:int -> int
(** Servers still marked pending for [label] — the quantity compared
    against [f] in find_read_label's wait condition. *)

val is_pending : t -> server:int -> label:int -> bool

val corrupt : t -> Sbft_sim.Rng.t -> unit
(** Transient fault: randomize the whole matrix and the last-used
    label. *)
