(** Self-contained HTML reports of experiment tables.

    [dune exec bin/sbftreg.exe -- experiment all --html report.html]
    writes every table into one static page (inline CSS, no assets) —
    the shareable artifact of a reproduction run. *)

val write_file : path:string -> ?title:string -> ?preamble:string -> Table.t list -> unit
(** One standalone document: a nav bar, then each table as a
    [<section>] with caption, table and notes, every string
    HTML-escaped.  [preamble] is raw HTML inserted before the first
    table (escape user data yourself). *)

(** {1 Streaming-run report}

    [sbftreg report --html] renders a metrics artifact's streaming
    blocks ([series], [stabilization], [alerts]) into a
    standalone page: per-shard sparklines (inline SVG, hand-rolled
    like everything else here), red stabilization markers, and the
    alert log. *)

val write_series_report : path:string -> ?title:string -> Sbft_sim.Json.t -> unit
