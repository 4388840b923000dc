type t = {
  n : int;
  f : int;
  clients : int;
  k : int;
  read_label_pool : int;
  history_depth : int;
  forward_to_readers : bool;
}

let make ?k ?(read_label_pool = 3) ?history_depth ?(allow_unsafe = false)
    ?(forward_to_readers = true) ~n ~f ~clients () =
  if n < 1 then invalid_arg "Config.make: n must be positive";
  if f < 0 then invalid_arg "Config.make: f must be non-negative";
  if clients < 1 then invalid_arg "Config.make: need at least one client";
  if read_label_pool < 2 then invalid_arg "Config.make: read_label_pool must be >= 2";
  if (not allow_unsafe) && n < (5 * f) + 1 then
    invalid_arg
      (Printf.sprintf "Config.make: n = %d < 5f + 1 = %d (pass ~allow_unsafe to experiment below the bound)"
         n ((5 * f) + 1));
  let k = match k with Some k -> max k 2 | None -> max n 2 in
  let history_depth = match history_depth with Some d -> max d 1 | None -> n in
  { n; f; clients; k; read_label_pool; history_depth; forward_to_readers }

let quorum t = t.n - t.f

let witness_threshold t = (2 * t.f) + 1

let server_ids t = List.init t.n (fun i -> i)

let client_ids t = List.init t.clients (fun i -> t.n + i)

let endpoints t = t.n + t.clients

let is_server t id = id >= 0 && id < t.n
