(* Workload engine-sweep: Analysis.run over the whole registered
   (analysis x corpus) matrix plus the two nosupp strictness cells, in
   [parts] fresh child processes (this executable with [--child-pass]).
   A process's heap layout moves every cell it runs by up to a tenth
   for the heavy cells and up to a half for the light ones, so one
   process per run would make the run one draw of that lottery.  Each
   process runs the light cells, so they are timed [parts] times a run,
   and its share of the heavy cells (every [parts]-th one).  The cells
   run back to back after an untimed warm-up over the light cells,
   which takes the first-use costs out of the timed cells: in a fresh
   process gaia's first kalah run takes a second against 0.01 s warm,
   and the light cells take twice as long after a warm-up of one cell
   per analysis. *)

open Prax

let golden_file = Filename.concat "perfbench" "golden.txt"

let digest s = Digest.to_hex (Digest.string s)

(* cell id -> MD5 of the cell's payload_text at the commit that defined
   this benchmark *)
let golden () =
  let tbl = Hashtbl.create 64 in
  (match Procs.read_file golden_file with
  | None -> failwith ("missing " ^ golden_file)
  | Some s ->
      List.iter
        (fun line ->
          match String.split_on_char ' ' line with
          | [ id; d ] -> Hashtbl.replace tbl id d
          | _ -> ())
        (String.split_on_char '\n' s));
  tbl

let guard () = Guard.create ~timeout:60. ()

(* --- the child --------------------------------------------------------------- *)

let parts = 6

(* The cells of process [part]: the light cells, then every [parts]-th
   of the rest (heavy, then nosupp), in registry order, so the light
   cells do not pay GC slices over a heavy cell's heap.  Part [parts]
   runs the light cells only. *)
let part_cells part =
  let light = Inputs.light_cells () in
  let ids = List.map Inputs.cell_id light in
  let rest =
    List.filter (fun c -> not (List.mem (Inputs.cell_id c) ids)) (Inputs.engine_cells ())
  in
  light @ List.filteri (fun i _ -> i mod parts = part) rest

(* Each light cell is timed [light_runs] times back to back and reports
   its fastest run, the way bench/main.ml reports the best of three: a
   light cell takes a few ms, so a burst of load from elsewhere on the
   machine moves one run of it by half.  A heavy cell runs once. *)
let light_runs = 3

(* One process: the warm-up, a ready line, then one line per cell with
   its fastest report and times, then the process's peak RSS, its CPU
   and Analysis.run count since the ready line (the warm-up belongs to
   no op) and its GC totals.  With [traced], library counter deltas of
   the reported run ride along. *)
let child ~part ~traced =
  let open Metrics in
  let emit j = print_endline (json_to_string j); flush stdout in
  let run (c : Inputs.cell) =
    Analysis.run (Inputs.find_analysis c.Inputs.analysis) ~config:c.Inputs.config
      ~guard:(guard ()) c.Inputs.source
  in
  let cpu () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let light = List.map Inputs.cell_id (Inputs.light_cells ()) in
  let runs = ref 0 in
  let timed c =
    Stdlib.incr runs;
    let before = if traced then Ledger.counters () else [] in
    let t0 = Analysis.now () in
    let rep = run c in
    let t1 = Analysis.now () in
    (t0, t1, rep, if traced then Ledger.diff (Ledger.counters ()) before else [])
  in
  let fastest c k =
    let best = ref (timed c) in
    for _ = 2 to k do
      let ((t0, t1, _, _) as r) = timed c and b0, b1, _, _ = !best in
      if t1 -. t0 < b1 -. b0 then best := r
    done;
    !best
  in
  List.iter (fun c -> ignore (run c)) (Inputs.light_cells ());
  let cpu0 = cpu () in
  emit (Obj [ ("ready", Float (Analysis.now ())) ]);
  List.iter
    (fun (c : Inputs.cell) ->
      let k = if List.mem (Inputs.cell_id c) light then light_runs else 1 in
      let t0, t1, rep, counts = fastest c k in
      emit
        (Obj
           [ ("cell", Str (Inputs.cell_id c)); ("t0", Float t0); ("t1", Float t1);
             ("report", Analysis.report_to_json rep);
             ("counts", Ledger.counts_json counts) ]))
    (part_cells part);
  emit
    (Obj
       [ ("done", Float (Analysis.now ())); ("peak_rss_mb", Float (Procs.peak_rss_mb "self"));
         ("cpu_s", Float (cpu () -. cpu0)); ("runs", Int !runs);
         ("gc", Ledger.gc_json (Ledger.gc_now ())) ])

(* Print the golden digest of every engine cell (run from the repo root
   at the commit whose outputs are to be pinned):
     _build/default/perfbench/main.exe --write-golden > perfbench/golden.txt *)
let write_golden () =
  List.iter
    (fun (c : Inputs.cell) ->
      let a = Inputs.find_analysis c.Inputs.analysis in
      let rep = Analysis.run a ~config:c.Inputs.config ~guard:(guard ()) c.Inputs.source in
      Printf.printf "%s %s\n%!" (Inputs.cell_id c) (digest rep.Analysis.payload_text))
    (Inputs.engine_cells ())

(* --- the parent ---------------------------------------------------------------- *)

type cell = {
  id : string;
  t0 : float;  (** Analysis.run call and return *)
  t1 : float;
  report : Analysis.parsed_report;
  counts : (string * int) list;
}

type proc = {
  spawned : float;
  ready : float;  (** after the warm-up *)
  finished : float;  (** when the parent reaped the process *)
  cells : cell list;
  peak_rss_mb : float;
  cpu_s : float;  (** after the warm-up *)
  runs : int;  (** Analysis.run calls after the warm-up *)
  gc : Ledger.gc;
  p_traced : bool;
}

let num = Procs.num

let run_part ~part ~traced =
  let spawned, ok, docs =
    Procs.run_child [ "--child-pass"; string_of_int part; "--trace"; (if traced then "1" else "0") ]
  in
  let finished = Analysis.now () in
  let m k j = Option.value ~default:Metrics.Null (Metrics.member k j) in
  let cell j =
    match (Analysis.report_of_json (m "report" j), m "cell" j) with
    | Ok report, Metrics.Str id ->
        Some
          { id; t0 = num (m "t0" j); t1 = num (m "t1" j); report;
            counts = Ledger.counts_of_json (m "counts" j) }
    | _ -> None
  in
  match docs with
  | ready :: rest when ok && rest <> [] ->
      let fin = List.nth rest (List.length rest - 1) in
      let cells = List.filter_map cell rest in
      if List.length cells <> List.length (part_cells part) then Error "engine-sweep: cells missing"
      else
        Ok
          { spawned; ready = num (m "ready" ready); finished; cells;
            peak_rss_mb = num (m "peak_rss_mb" fin);
            cpu_s = num (m "cpu_s" fin); runs = int_of_float (num (m "runs" fin)); gc = Ledger.gc_of_json (m "gc" fin); p_traced = traced }
  | _ -> Error "engine-sweep: child process failed"

(* The output check for one cell: the digest of its payload text
   against the golden one, and its status. *)
let check_text golden ~id ~status text =
  (match Hashtbl.find_opt golden id with
  | None -> [ id ^ ": no golden digest" ]
  | Some d when d <> digest text -> [ id ^ ": payload differs from golden" ]
  | Some _ -> [])
  @ if status <> "complete" then [ id ^ ": " ^ status ] else []

let check golden c =
  check_text golden ~id:c.id ~status:c.report.Analysis.p_status c.report.Analysis.p_text

let lat c = c.t1 -. c.t0

(* A run is the [parts] processes, about 25 s here, whatever
   [seconds] says.  Under tracing all of them record counters, and one
   more, untraced, process times the light cells again: the difference
   of the light cells' median latency between the two is the tracing
   overhead.  The matrix is the whole input, so the seed changes
   nothing here. *)
let run ~seed:_ ~seconds:_ ~traced out =
  let t_start = Analysis.now () in
  let golden = golden () in
  let gen_s = Analysis.now () -. t_start in
  (* the matrix and the golden digests must name the same cells, so a
     cell that drops out of the matrix cannot go unnoticed *)
  let ids = List.map Inputs.cell_id (Inputs.engine_cells ()) in
  Hashtbl.iter
    (fun id _ -> if not (List.mem id ids) then Outcome.breach out (id ^ ": not in the matrix"))
    golden;
  let plan =
    List.init parts (fun part -> (part, traced)) @ if traced then [ (parts, false) ] else []
  in
  let procs =
    List.filter_map
      (fun (part, traced) ->
        match run_part ~part ~traced with
        | Ok p -> Some p
        | Error e ->
            Outcome.breach out e;
            None)
      plan
  in
  let timed = List.filter (fun p -> p.p_traced = traced) procs in
  List.iter (fun p -> List.iter (fun c -> Outcome.op out (check golden c)) p.cells) procs;
  let cells = List.concat_map (fun p -> p.cells) timed in
  (* negative control: the digest check must reject a corrupted payload *)
  (match cells with
  | c :: _ ->
      let wrong = Outcome.corrupt c.report.Analysis.p_text in
      Outcome.control out (fun () -> check_text golden ~id:c.id ~status:"complete" wrong <> [])
  | [] -> ());
  let set = Outcome.set out in
  let lats = List.map (fun c -> 1000. *. lat c) cells in
  (* set-up: reading the golden digests, then the median process's start
     and warm-up until its first timed cell *)
  set "setup_s" (gen_s +. Order.median (List.map (fun p -> p.ready -. p.spawned) timed));
  set "p50_ms" (Order.median lats);
  Outcome.set_p90 out "p90_ms" lats;
  set "ops_per_s" (Order.ratio (float_of_int (List.length cells)) (Order.sum lats /. 1000.));
  set "peak_rss_mb" (List.fold_left (fun m p -> Float.max m p.peak_rss_mb) 0. timed);
  (* per Analysis.run: a light cell's op is [light_runs] of them *)
  set "cpu_ms_per_op"
    (Order.ratio
       (1000. *. Order.sum (List.map (fun p -> p.cpu_s) timed))
       (float_of_int (List.fold_left (fun n p -> n + p.runs) 0 timed)));
  if traced then begin
    (* spans: each process, its cells' Analysis.run under it, and the
       report's phases under that *)
    Span.enabled := true;
    List.iter
      (fun p ->
        let pid = Span.add ~layer:"bench" "sweep-process" p.spawned p.finished in
        List.iter
          (fun c ->
            let op = Span.fresh () in
            let id = Span.add ~parent:pid ~op ~layer:"analysis" "Analysis.run" c.t0 c.t1 in
            Span.add_phases ~parent:id ~op ~t_end:c.t1 c.report.Analysis.p_phases)
          p.cells)
      timed;
    Span.enabled := false;
    let light_median ps =
      let light = List.map Inputs.cell_id (Inputs.light_cells ()) in
      Order.median
        (List.concat_map
           (fun p ->
             List.filter_map
               (fun c -> if List.mem c.id light then Some (1000. *. lat c) else None)
               p.cells)
           ps)
    in
    Ledger.ops out (List.map (fun c -> Ledger.of_parsed ~lat:(lat c) c.report) cells);
    Ledger.spans out (Span.all ())
      ~overhead_ms:
        (light_median timed -. light_median (List.filter (fun p -> not p.p_traced) procs));
    Ledger.library_counts out
      (List.fold_left (fun acc c -> Ledger.add_counts c.counts acc) [] cells);
    Ledger.gc out
      (List.fold_left
         (fun (acc : Ledger.gc) p ->
           { Ledger.minor_words = acc.Ledger.minor_words +. p.gc.Ledger.minor_words;
             majors = acc.Ledger.majors + p.gc.Ledger.majors;
             top_heap_words = max acc.Ledger.top_heap_words p.gc.Ledger.top_heap_words })
         { Ledger.minor_words = 0.; majors = 0; top_heap_words = 0 }
         timed);
    Ledger.cpu out
      ~cpu_s:(Order.sum (List.map (fun p -> p.cpu_s) timed))
      ~wall:(Order.sum (List.map (fun p -> p.finished -. p.ready) timed))
      ~jobs:1;
    (* the heavy cells' shares of the summed cell time *)
    let total = Order.sum (List.map lat cells) in
    List.iter
      (fun id ->
        set ("cell.share." ^ id)
          (Order.ratio
             (Order.sum (List.filter_map (fun c -> if c.id = id then Some (lat c) else None) cells))
             total))
      [ "strictness.pcprove"; "strictness.nq"; "strictness.event";
        "strictness-nosupp.eu"; "strictness-nosupp.quicksort" ]
  end
