type t = { sys : System.t; writer : int }

let create ?seed ?delay ?trace_level ?transport cfg =
  let sys = System.create ?seed ?delay ?trace_level ?transport cfg in
  { sys; writer = cfg.Config.n }

let system t = t.sys

let writer t = t.writer

let readers t =
  List.filter (fun c -> c <> t.writer) (Config.client_ids (System.config t.sys))

let write t ~value ?k () = System.write t.sys ~client:t.writer ~value ?k ()

let read t ~client ?k () = System.read t.sys ~client ?k ()

let quiesce ?max_events t = System.quiesce ?max_events t.sys

let history t = System.history t.sys
