(* Workload batch: the light cells, unmutated, through both batch
   runners.  Serve.run_batch (a forked worker per job, jobs=2) runs once
   over a seeded slice of [fork_slice] cells; then Domains.run (jobs=2)
   runs over the whole list repeated [domain_repeats] times, [seconds / 6]
   calls in a row (a call takes about five seconds here).  A fixed call
   count keeps the share of jobs that pay a fresh domain's first-use
   costs the same in every run.  OCaml 5 refuses to fork once a
   process has spawned a domain, so the fork runner runs in this process
   and the domains calls in a child (this executable with
   [--child-domains]).

   The end-to-end metrics describe the domains runner.  Each fork job's
   latency depends on whether the reap floor (ROADMAP item 1) strikes,
   and across seeds the fork figures spread 40-57%, wider than any
   bound; the fork runner is measured in the per-layer metrics and its
   payloads check the domains runner's. *)

open Prax

let domain_repeats = 6
let fork_slice = 16
let setup_runs = 5

type job = {
  runner : string;  (** ["fork"] or ["domains"] *)
  cell : Inputs.cell;
  t_end : float;  (** when the runner reported it *)
  elapsed : float;
  outcome : (Analysis.parsed_report, string) result;
  traced : bool;
}

(* One runner call. *)
type round = {
  r_runner : string;
  r_t0 : float;
  r_wall : float;
  r_jobs : job list;
  r_traced : bool;
  r_counts : (string * int) list;  (** library counter deltas (domains) *)
}

let cells ~seed =
  Array.of_list (Inputs.shuffle (Inputs.rng ~seed "batch-order") (Inputs.light_cells ()))

let cell_of cells job = cells.(int_of_string (List.nth (String.split_on_char ':' job) 1))

let worker cells ~job ~attempt:_ ~guard =
  let c : Inputs.cell = cell_of cells job in
  let rep =
    Analysis.run (Inputs.find_analysis c.Inputs.analysis) ~config:c.Inputs.config ~guard
      c.Inputs.source
  in
  let payload = Metrics.json_to_string (Analysis.report_to_json ~input:c.Inputs.name rep) in
  match rep.Analysis.status with
  | Guard.Complete -> (Serve.Complete, payload)
  | Guard.Partial { reason; _ } -> (Serve.Partial_result (Guard.reason_to_string reason), payload)

let parse_payload payload =
  match Analysis.report_of_json (Metrics.json_of_string payload) with
  | Ok p -> Ok p
  | Error e -> Error ("bad payload: " ^ e)
  | exception Metrics.Json_error e -> Error ("bad payload: " ^ e)

let payload_of (r : Serve.report) =
  match r.Serve.outcome with
  | Serve.Done { payload; partial = None; _ } -> Ok payload
  | Serve.Done { partial = Some why; _ } -> Error ("partial: " ^ why)
  | Serve.Crashed c -> Error ("crashed: " ^ c.Serve.what)

let ids ~prefix ~repeats n =
  List.concat
    (List.init repeats (fun r -> List.init n (fun i -> Printf.sprintf "%s%d:%d" prefix r i)))

let num = Procs.num

(* --- the domains child ------------------------------------------------------- *)

(* Warm up with one untimed call over the list, print a ready line,
   then make [calls] timed calls over the list repeated [repeats] times:
   a line per job as it is reported, a line per call, and a last line
   with the process's peak RSS, CPU and GC. *)
let child_domains ~seed ~repeats ~calls:n_calls =
  let open Metrics in
  let emit j = print_endline (json_to_string j) in
  let cells = cells ~seed in
  let worker = worker cells in
  let n = Array.length cells in
  let cpu () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  ignore (Domains.run ~jobs:2 ~worker (ids ~prefix:"w" ~repeats:1 n));
  let cpu0 = cpu () in
  emit (Obj [ ("ready", Float (Analysis.now ())) ]);
  let rec calls k =
    if k < n_calls then begin
      let before = Ledger.counters () in
      let on_report (r : Serve.report) =
        emit
          (Obj
             ([ ("job", Str r.Serve.job); ("t_end", Float (Analysis.now ()));
                ("elapsed", Float r.Serve.elapsed) ]
             @
             match payload_of r with
             | Ok p -> [ ("payload", Str p) ]
             | Error e -> [ ("error", Str e) ]))
      in
      let t0 = Analysis.now () in
      let ids = ids ~prefix:(Printf.sprintf "d%d-" k) ~repeats n in
      ignore (Domains.run ~jobs:2 ~on_report ~worker ids);
      emit
        (Obj
           [ ("call", Int k); ("t0", Float t0); ("t1", Float (Analysis.now ()));
             ("counts", Ledger.counts_json (Ledger.diff (Ledger.counters ()) before)) ]);
      calls (k + 1)
    end
  in
  calls 0;
  emit
    (Obj
       [ ("done", Float (Analysis.now ())); ("peak_rss_mb", Float (Procs.peak_rss_mb "self"));
         ("cpu_s", Float (cpu () -. cpu0)); ("gc", Ledger.gc_json (Ledger.gc_now ())) ])

type child = {
  c_spawned : float;
  c_ready : float;
  calls : round list;
  c_peak_rss_mb : float;
  c_cpu_s : float;  (** after the warm-up *)
  c_gc : Ledger.gc;
}

(* Run a domains child making [calls] timed calls (none when 0); calls
   numbered [traced_from] and up are the traced ones. *)
let domains_child cells ~seed ~calls ~traced_from =
  let spawned, ok, docs =
    Procs.run_child
      [ "--child-domains"; string_of_int domain_repeats; "--seed"; string_of_int seed;
        "--calls"; string_of_int calls ]
  in
  let m k j = Option.value ~default:Metrics.Null (Metrics.member k j) in
  let has k j = Metrics.member k j <> None in
  match docs with
  | ready :: rest when ok && rest <> [] && has "ready" ready ->
      let fin = List.nth rest (List.length rest - 1) in
      (* job lines precede their call's line *)
      let calls, _ =
        List.fold_left
          (fun (calls, pending) j ->
            if has "job" j then (calls, j :: pending)
            else if has "call" j then begin
              let t0 = num (m "t0" j) in
              let traced = num (m "call" j) >= float_of_int traced_from in
              let job j =
                let id = match m "job" j with Metrics.Str s -> s | _ -> "" in
                { runner = "domains"; cell = cell_of cells id; t_end = num (m "t_end" j);
                  elapsed = num (m "elapsed" j);
                  outcome =
                    (match (m "payload" j, m "error" j) with
                    | Metrics.Str p, _ -> parse_payload p
                    | _, Metrics.Str e -> Error e
                    | _ -> Error "no outcome");
                  traced }
              in
              ( { r_runner = "domains"; r_t0 = t0; r_wall = num (m "t1" j) -. t0;
                  r_jobs = List.rev_map job pending; r_traced = traced;
                  r_counts = Ledger.counts_of_json (m "counts" j) }
                :: calls,
                [] )
            end
            else (calls, pending))
          ([], []) rest
      in
      Ok
        { c_spawned = spawned; c_ready = num (m "ready" ready); calls = List.rev calls;
          c_peak_rss_mb = num (m "peak_rss_mb" fin); c_cpu_s = num (m "cpu_s" fin);
          c_gc = Ledger.gc_of_json (m "gc" fin) }
  | _ -> Error "domains child failed"

(* --- the fork runner ---------------------------------------------------------- *)

let fork_config = { Serve.default_config with Serve.jobs = 2 }

let fork_round cells =
  let jobs = ref [] and traced = !Span.enabled in
  let on_report (r : Serve.report) =
    jobs :=
      { runner = "fork"; cell = cell_of cells r.Serve.job; t_end = Analysis.now ();
        elapsed = r.Serve.elapsed;
        outcome = Result.bind (payload_of r) parse_payload; traced }
      :: !jobs
  in
  let ids = List.init fork_slice (fun i -> Printf.sprintf "f:%d" i) in
  let t0 = Analysis.now () in
  ignore (Span.with_span ~layer:"serve" "Serve.run_batch" (fun _ ->
      Serve.run_batch ~config:fork_config ~on_report ~worker:(worker cells) ids));
  { r_runner = "fork"; r_t0 = t0; r_wall = Analysis.now () -. t0; r_jobs = List.rev !jobs;
    r_traced = traced; r_counts = [] }

(* Spans of a traced round: the runner call (recorded live for the fork
   runner, from the child's times for domains), each job under it
   ending at its report, and the job's phases under the job. *)
let round_spans r =
  let rid =
    if r.r_runner = "fork" then
      List.fold_left
        (fun acc (s : Span.span) -> if s.Span.name = "Serve.run_batch" then s.Span.id else acc)
        0 (Span.all ())
    else Span.add ~layer:"domains" "Domains.run" r.r_t0 (r.r_t0 +. r.r_wall)
  in
  List.iter
    (fun j ->
      let op = Span.fresh () in
      let id = Span.add ~parent:rid ~op ~layer:r.r_runner "job" (j.t_end -. j.elapsed) j.t_end in
      match j.outcome with
      | Ok p -> Span.add_phases ~parent:id ~op ~t_end:j.t_end p.Analysis.p_phases
      | Error _ -> ())
    r.r_jobs

(* --- the workload -------------------------------------------------------------- *)

let run ~seed ~seconds ~traced out =
  let list = cells ~seed in
  (* the fork runner first: its payloads check the domains runner's *)
  let spawned0 = Metrics.counter_value "serve.workers_spawned" in
  Span.enabled := traced;
  let fork = fork_round list in
  Span.enabled := false;
  let workers_spawned = Metrics.counter_value "serve.workers_spawned" - spawned0 in
  (* set-up, [setup_runs] times: inputs and golden digests, then a domains
     child started and warmed up; the last child goes on to the timed
     calls *)
  let setup last =
    let t0 = Analysis.now () in
    let cells = cells ~seed and golden = Sweep.golden () in
    let gen_s = Analysis.now () -. t0 in
    (* under tracing, one untraced call and one traced *)
    let calls = if not last then 0 else if traced then 2 else max 1 (seconds / 6) in
    let traced_from = if traced then 1 else max_int in
    match domains_child cells ~seed ~calls ~traced_from with
    | Ok c -> Some (gen_s +. (c.c_ready -. c.c_spawned), c, golden)
    | Error e ->
        Outcome.breach out e;
        None
  in
  let setups = List.filter_map setup (List.init setup_runs (fun i -> i = setup_runs - 1)) in
  let golden = Sweep.golden () in
  let child = match List.rev setups with (_, c, _) :: _ when c.calls <> [] -> Some c | _ -> None in
  let calls = Option.fold ~none:[] ~some:(fun c -> c.calls) child in
  let jobs_of rs = List.concat_map (fun r -> r.r_jobs) rs in
  (* each job's text against the golden digest; per cell, the fork and
     domains runners' texts must agree *)
  let fork_text = Hashtbl.create 64 in
  List.iter
    (fun j ->
      match j.outcome with
      | Ok p -> Hashtbl.replace fork_text (Inputs.cell_id j.cell) p.Analysis.p_text
      | _ -> ())
    fork.r_jobs;
  let check j text =
    let id = Inputs.cell_id j.cell in
    Sweep.check_text golden ~id ~status:"complete" text
    @
    match Hashtbl.find_opt fork_text id with
    | Some t when t <> text -> [ id ^ ": fork and domains payloads differ" ]
    | _ -> []
  in
  let all_jobs = jobs_of (fork :: calls) in
  List.iter
    (fun j ->
      Outcome.op out
        (match j.outcome with
        | Ok p -> check j p.Analysis.p_text
        | Error e -> [ Inputs.cell_id j.cell ^ ": " ^ e ]))
    all_jobs;
  if List.length fork.r_jobs <> fork_slice then Outcome.breach out "fork runner: jobs missing";
  if child = None then Outcome.breach out "domains runner: no timed call";
  let checkable j = Result.is_ok j.outcome && Hashtbl.mem fork_text (Inputs.cell_id j.cell) in
  (match List.find_opt checkable (jobs_of calls) with
  | Some ({ outcome = Ok p; _ } as j) ->
      Outcome.control out (fun () -> check j (Outcome.corrupt p.Analysis.p_text) <> [])
  | _ -> ());
  let set = Outcome.set out in
  let wall_of rs = Order.sum (List.map (fun r -> r.r_wall) rs) in
  let untraced = List.filter (fun r -> not r.r_traced) calls in
  let lats rs = List.map (fun j -> 1000. *. j.elapsed) (jobs_of rs) in
  let n_jobs = float_of_int (List.length (jobs_of calls)) in
  set "setup_s" (Order.median (List.map (fun (s, _, _) -> s) setups));
  set "p50_ms" (Order.median (lats untraced));
  Outcome.set_p90 out "p90_ms" (lats untraced);
  set "ops_per_s" (Order.ratio (float_of_int (List.length (jobs_of untraced))) (wall_of untraced));
  set "peak_rss_mb"
    (Float.max (Procs.peak_rss_mb "self")
       (Option.fold ~none:0. ~some:(fun c -> c.c_peak_rss_mb) child));
  set "cpu_ms_per_op"
    (Order.ratio (1000. *. Option.fold ~none:0. ~some:(fun c -> c.c_cpu_s) child) n_jobs);
  if traced then begin
    let tr = fork :: List.filter (fun r -> r.r_traced) calls in
    Span.enabled := true;
    List.iter round_spans tr;
    Span.enabled := false;
    let med rs = Order.median (lats rs) in
    Ledger.ops out
      (List.filter_map
         (fun j ->
           match j.outcome with
           | Ok p -> Some (Ledger.of_parsed ~lat:j.elapsed p)
           | Error _ -> None)
         (jobs_of tr));
    (* the domains calls' spans are built after the fact, so the traced
       half differs from the untraced half only by run-to-run noise *)
    Ledger.spans out (Span.all ())
      ~overhead_ms:(med (List.filter (fun r -> r.r_traced) calls) -. med untraced);
    Ledger.library_counts out
      (List.fold_left (fun acc r -> Ledger.add_counts r.r_counts acc) [] calls);
    Option.iter
      (fun c ->
        Ledger.gc out c.c_gc;
        Ledger.cpu out ~cpu_s:c.c_cpu_s ~wall:(wall_of calls) ~jobs:2)
      child;
    set "serve.workers_spawned" (float_of_int workers_spawned);
    set "serve.domains_spawned"
      (float_of_int
         (List.fold_left
            (fun a r ->
              a + Option.value ~default:0 (List.assoc_opt "serve.domains_spawned" r.r_counts))
            0 calls));
    let in_job rs =
      Order.sum
        (List.filter_map
           (fun j ->
             match j.outcome with
             | Ok p -> Some (Analysis.total p.Analysis.p_phases)
             | Error _ -> None)
           (jobs_of rs))
    in
    let eff rs = Order.ratio (in_job rs) (2. *. wall_of rs) in
    set "batch.fork_efficiency" (eff [ fork ]);
    set "batch.domains_efficiency" (eff calls);
    let per_job rs = Order.ratio (wall_of rs) (float_of_int (List.length (jobs_of rs))) in
    set "batch.domains_speedup" (Order.ratio (per_job [ fork ]) (per_job calls))
  end
