module Fault_plan = Sbft_byz.Fault_plan

type result_t = { scenario : Scenario.t; verdict : Scenario.verdict; executions : int; rounds : int }

let same_verdict a b =
  match a, b with
  | Scenario.Violation _, Scenario.Violation _ ->
      (* any regularity violation keeps the reproducer: which clause
         trips first can legitimately change as the schedule shrinks *)
      true
  | a, b -> a = b

let shrink ?(max_executions = 400) ?(log = fun _ -> ()) ~target (s0 : Scenario.t) =
  let executions = ref 0 in
  let reproduces (s : Scenario.t) =
    (* never "simplify" into a permanently-partitioned system: it may
       preserve a livelock verdict, but for the trivial out-of-model
       reason rather than the one being minimized *)
    if not (Fault_plan.partitions_healed s.plan) then false
    else if !executions >= max_executions then false
    else begin
      incr executions;
      match Scenario.execute ~max_events:4_000_000 s with
      | Error _ -> false
      | Ok r -> same_verdict target (Scenario.verdict_of_run r)
    end
  in
  (* Greedy descent: accept the first candidate of each pass that still
     reproduces, repeat all passes until a full round changes nothing. *)
  let current = ref s0 in
  let improved = ref true in
  let rounds = ref 0 in
  let try_candidate label c =
    if c <> !current && reproduces c then begin
      log (Printf.sprintf "shrink: %s" label);
      current := c;
      improved := true
    end
  in
  while !improved && !executions < max_executions do
    improved := false;
    incr rounds;
    (* 1. Drop fault-plan events, one at a time (latest first: the
       audit suffix starts after the last event, so removing tail
       events usually keeps the verdict while shortening the run). *)
    let s = !current in
    let len = List.length s.plan in
    for i = len - 1 downto 0 do
      let c = { !current with plan = List.filteri (fun j _ -> j <> i) !current.plan } in
      if List.length !current.plan > i then
        try_candidate (Printf.sprintf "dropped plan event %d/%d" (i + 1) len) c
    done;
    (* 2. Pull fault times toward 0 — earlier faults mean a shorter
       tail of operations is needed to reach the failing state. *)
    List.iteri
      (fun i (at, _) ->
        if at > 1 then
          let c =
            {
              !current with
              plan = List.mapi (fun j (a, e) -> if j = i then (a / 2, e) else (a, e)) !current.plan;
            }
          in
          try_candidate (Printf.sprintf "halved time of plan event %d" (i + 1)) c)
      !current.plan;
    (* 3. Fewer operations per client.  A smaller workload is an
       entirely different schedule, so each size gets a few
       deterministic re-seeds to re-manifest the verdict. *)
    let with_reseeds label c =
      try_candidate label c;
      for k = 1 to 4 do
        try_candidate
          (Printf.sprintf "%s (reseed +%d)" label k)
          { c with seed = Int64.add c.seed (Int64.of_int k) }
      done
    in
    List.iter
      (fun ops ->
        if ops < !current.ops_per_client then
          with_reseeds (Printf.sprintf "ops/client -> %d" ops) { !current with ops_per_client = ops })
      [ 1; 2; 3; 4; 5; 6; 8; 10; 12; s0.ops_per_client / 2 ];
    (* 4. Fewer clients. *)
    List.iter
      (fun clients ->
        if clients >= 1 && clients < !current.clients then
          with_reseeds (Printf.sprintf "clients -> %d" clients) { !current with clients })
      [ 1; 2; !current.clients - 1 ];
    (* 5. Strip the ambient adversary and corruption if the plan alone
       reproduces. *)
    if !current.strategy <> None then
      try_candidate "dropped strategy" { !current with strategy = None };
    if !current.corrupt then try_candidate "dropped t0 corruption" { !current with corrupt = false };
    (* 6. Cosmetics: a quieter trace replays identically but reads
       better as a committed artifact. *)
    if !current.snapshot_every <> 0 then
      try_candidate "disabled snapshots" { !current with snapshot_every = 0 }
  done;
  { scenario = !current; verdict = target; executions = !executions; rounds = !rounds }

let pp_result fmt r =
  Format.fprintf fmt
    "shrunk to n=%d f=%d clients=%d ops=%d seed=%Ld delay=%s strategy=%s%s plan=[%s] (%d \
     executions, %d rounds)"
    r.scenario.n r.scenario.f r.scenario.clients r.scenario.ops_per_client r.scenario.seed
    r.scenario.delay
    (Option.value ~default:"none" r.scenario.strategy)
    (if r.scenario.corrupt then " corrupt" else "")
    (Fault_plan.to_string r.scenario.plan)
    r.executions r.rounds
