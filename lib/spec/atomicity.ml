type report = { checked_ops : int; linearizable : bool; cycle : string option }

type node = { label : string; value : int; is_write : bool; inv : int; resp : int }

let check ?(after = 0) h =
  (* Gather completed operations in scope. *)
  let nodes = ref [] in
  List.iter
    (function
      | History.Write w -> (
          (* Writes are always in scope: a read after [after] may
             legitimately return a value written before it, and the
             write's ordering constraints come along. *)
          match w.resp with
          | Some resp ->
              nodes :=
                { label = Printf.sprintf "w%d(%d)" w.id w.value; value = w.value; is_write = true;
                  inv = w.inv; resp }
                :: !nodes
          | _ -> ())
      | History.Read r -> (
          match r.outcome, r.resp with
          | History.Value v, Some resp when r.inv >= after ->
              nodes :=
                { label = Printf.sprintf "r%d(%d)" r.id v; value = v; is_write = false;
                  inv = r.inv; resp }
                :: !nodes
          | _ -> ()))
    (History.ops h);
  let nodes = Array.of_list (List.rev !nodes) in
  let n = Array.length nodes in
  let before = Array.make_matrix n n false in
  let writer_of = Hashtbl.create 16 in
  Array.iteri (fun i nd -> if nd.is_write then Hashtbl.replace writer_of nd.value i) nodes;
  (* Base constraints. *)
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j && nodes.(i).resp < nodes.(j).inv then before.(i).(j) <- true
    done
  done;
  let unwritten = ref None in
  for i = 0 to n - 1 do
    let nd = nodes.(i) in
    if not nd.is_write then
      match Hashtbl.find_opt writer_of nd.value with
      | Some w -> before.(w).(i) <- true
      | None -> if !unwritten = None then unwritten := Some nd.label
  done;
  let closure () =
    for k = 0 to n - 1 do
      for i = 0 to n - 1 do
        if before.(i).(k) then
          for j = 0 to n - 1 do
            if before.(k).(j) then before.(i).(j) <- true
          done
      done
    done
  in
  (* Propagate the read rules to a fixpoint. *)
  let changed = ref true in
  while !changed do
    changed := false;
    closure ();
    for r = 0 to n - 1 do
      let nd = nodes.(r) in
      if not nd.is_write then
        match Hashtbl.find_opt writer_of nd.value with
        | None -> ()
        | Some w ->
            for w' = 0 to n - 1 do
              if w' <> w && w' <> r && nodes.(w').is_write then begin
                if before.(w').(r) && not before.(w').(w) then begin
                  before.(w').(w) <- true;
                  changed := true
                end;
                if before.(w).(w') && not before.(r).(w') then begin
                  before.(r).(w') <- true;
                  changed := true
                end
              end
            done
    done
  done;
  let cycle = ref None in
  (match !unwritten with
  | Some l -> cycle := Some (Printf.sprintf "%s returned a value never written" l)
  | None ->
      (try
         for i = 0 to n - 1 do
           if before.(i).(i) then begin
             cycle := Some (Printf.sprintf "%s must precede itself" nodes.(i).label);
             raise Exit
           end
         done
       with Exit -> ()));
  { checked_ops = n; linearizable = !cycle = None; cycle = !cycle }
