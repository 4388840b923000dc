(** Named monotone counters and fixed-bucket histograms for a
    simulation run.

    Cheap enough to leave enabled everywhere: counters are hashtable
    slots, and histogram recording is a ~20-element scan with no
    allocation.  Experiments read them back at the end of a run to
    build tables; [--metrics-out] serializes the whole snapshot. *)

type t

val create : unit -> t

val incr : t -> string -> unit
(** [incr t name] bumps counter [name] by one (creating it at 0). *)

val add : t -> string -> int -> unit
(** [add t name v] bumps counter [name] by [v]. *)

val get : t -> string -> int
(** Current value of a counter, 0 if never touched. *)

type counter
(** A resolved counter handle: the name lookup (and any key-string
    construction) paid once instead of per bump.  For per-message hot
    paths — the network resolves one handle per message kind instead of
    concatenating a key string on every send. *)

val counter : t -> string -> counter
(** Resolve (creating at 0 if needed). *)

val counter_incr : counter -> unit

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

(** {2 Histograms}

    Fixed buckets keep long runs O(1) memory however many samples
    arrive — the per-operation phase latencies use these.
    Percentiles are extracted from the bucket counts by
    {!Sbft_harness.Stats.hist_percentile_sat}. *)

type hist_snapshot = {
  bounds : float array;  (** bucket upper bounds, strictly increasing *)
  counts : int array;  (** length = [bounds] + 1; last is the overflow bucket *)
  count : int;
  sum : float;
  min : float;  (** 0 when empty *)
  max : float;  (** 0 when empty *)
  stream : Series.Quantile.t option;
      (** streaming quantile digest over the same samples — consult it
          where a bucket percentile saturates; [None] when empty *)
}

val record : ?bounds:float array -> t -> string -> float -> unit
(** [record t name v] adds [v] to histogram [name], creating it on
    first use with [bounds] (default: geometric, 1, 2, 4, … 2^19
    virtual ticks).  [bounds] is ignored on later calls. *)

type hist
(** A resolved histogram handle: the name lookup paid once instead of
    per sample.  For hot paths that record the same histogram for every
    operation (the open-loop generator's queue-wait and end-to-end
    latencies).  Resolving a handle creates the (empty) histogram. *)

val hist : ?bounds:float array -> t -> string -> hist
val hist_record : hist -> float -> unit

val histogram : t -> string -> hist_snapshot option

val histograms : t -> (string * hist_snapshot) list
(** All histograms, sorted by name. *)
