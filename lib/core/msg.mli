(** Protocol messages (the wire format of Figures 1–3).

    One closed variant for the whole protocol so that Byzantine
    strategies can forge any constructor and the transient-fault
    injector can replace in-flight messages with arbitrary well-typed
    garbage. *)

type ts = Sbft_labels.Mw_ts.t

type hist_entry = { value : int; ts : ts }
(** One cell of a server's [old_vals] sliding window. *)

type t =
  | Get_ts  (** writer phase 1: request current timestamp *)
  | Ts_reply of { ts : ts }  (** server → writer *)
  | Write_req of { value : int; ts : ts }  (** writer phase 2 *)
  | Write_ack of { ts : ts; ack : bool }
      (** server → writer; [ack = false] is the paper's NACK (the server
          adopted the value but its previous timestamp did not precede
          the new one) *)
  | Read_req of { label : int }  (** reader → server *)
  | Reply of { value : int; ts : ts; old : hist_entry list; label : int }
      (** server → reader: current pair, recent-write history, echoed
          read label.  Also used for forwarding concurrent writes to
          running readers. *)
  | Complete_read of { label : int }
  | Flush of { label : int }  (** find_read_label: FIFO echo request *)
  | Flush_ack of { label : int }

val kind : t -> int
(** Dense constructor index, in declaration order: the per-kind send
    counters and trace events key on it. *)

val kind_names : string array
(** Constructor names by {!kind}: [kind_names.(kind m)] is ["get_ts"],
    ["write_req"], ... *)

val garbage : Sbft_labels.Sbls.system -> Sbft_sim.Rng.t -> t
(** An arbitrary message with corrupted fields — what a transient fault
    leaves sitting in a channel. *)

val pp : Format.formatter -> t -> unit
