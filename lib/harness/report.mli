(** Self-contained HTML reports of experiment tables.

    [dune exec bin/sbftreg.exe -- experiment all --html report.html]
    writes every table into one static page (inline CSS, no assets) —
    the shareable artifact of a reproduction run. *)

val escape : string -> string
(** HTML-escape ampersand, angle brackets and quotes. *)

val table_html : Table.t -> string
(** One table as an HTML fragment ([<section>] with caption, table and
    notes). *)

val page : ?title:string -> ?preamble:string -> Table.t list -> string
(** A complete standalone document. [preamble] is raw HTML inserted
    before the first table (escape user data yourself). *)

val write_file : path:string -> ?title:string -> ?preamble:string -> Table.t list -> unit

(** {1 Streaming-run report}

    [sbftreg report --html] renders a metrics artifact's streaming
    blocks ([series], [stabilization], [alerts]) into a
    standalone page: per-shard sparklines (inline SVG, hand-rolled
    like everything else here), red stabilization markers, and the
    alert log. *)

val sparkline_svg :
  ?width:int -> ?height:int -> ?hi:float -> ?marker:int -> (int * float option) list -> string
(** Bars for per-window values keyed by virtual time ([None] = empty
    window renders as a gap); [marker] draws a vertical line at a
    virtual time (the stabilization point).  [hi] pins the y scale
    (defaults to the observed maximum). *)

val series_page : ?title:string -> Sbft_sim.Json.t -> string
(** A complete standalone document from a [--metrics-out] artifact. *)

val write_series_report : path:string -> ?title:string -> Sbft_sim.Json.t -> unit
