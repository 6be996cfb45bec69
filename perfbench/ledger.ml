(* The per-layer metrics every traced run reports, whatever the
   workload: the op ledger (where each op's latency went), the report's
   engine counts, the library's own counters, the layer self times from
   the spans, GC and CPU use, and the cost of tracing itself.  The
   workload decides what an op is; perfbench/README.md lists it. *)

open Prax

(* One op as the ledger sees it: its end-to-end latency and the report
   of the analysis it ran. *)
type op = {
  analysis : string;
  lat : float;  (** seconds *)
  phases : Analysis.phases;
  engine : Analysis.engine_counts option;
  table_bytes : int;
}

let of_parsed ~lat (p : Analysis.parsed_report) =
  { analysis = p.Analysis.p_analysis; lat; phases = p.Analysis.p_phases;
    engine = p.Analysis.p_engine; table_bytes = p.Analysis.p_table_bytes }

let ms s = s *. 1000.

let ops out (ops : op list) =
  let set = Outcome.set out in
  let col f = List.map f ops in
  let total o = Analysis.total o.phases in
  let lat = col (fun o -> ms o.lat) and an = col (fun o -> ms (total o)) in
  let over = col (fun o -> ms (o.lat -. total o)) in
  set "ledger.op_ms.p50" (Order.median lat);
  set "ledger.analysis_ms.p50" (Order.median an);
  Outcome.set_p90 out "ledger.analysis_ms.p90" an;
  set "ledger.preprocess_ms.p50" (Order.median (col (fun o -> ms o.phases.Analysis.preproc)));
  set "ledger.evaluate_ms.p50" (Order.median (col (fun o -> ms o.phases.Analysis.analysis)));
  set "ledger.collect_ms.p50" (Order.median (col (fun o -> ms o.phases.Analysis.collection)));
  set "ledger.overhead_ms.p50" (Order.median over);
  Outcome.set_p90 out "ledger.overhead_ms.p90" over;
  set "ledger.analysis_frac" (Order.ratio (Order.sum an) (Order.sum lat));
  (* engine counts, summed over the ops' reports *)
  let eng f =
    float_of_int
      (List.fold_left
         (fun acc o -> match o.engine with Some e -> acc + f e | None -> acc)
         0 ops)
  in
  let calls = eng (fun e -> e.Analysis.calls)
  and entries = eng (fun e -> e.Analysis.table_entries)
  and answers = eng (fun e -> e.Analysis.answers)
  and dups = eng (fun e -> e.Analysis.duplicates) in
  set "tabling.calls" calls;
  set "tabling.resumptions" (eng (fun e -> e.Analysis.resumptions));
  set "tabling.answers_offered" (answers +. dups);
  set "tabling.answer_yield" (Order.ratio answers (answers +. dups));
  set "tabling.call_hit_ratio" (Order.ratio (calls -. entries) calls);
  set "tabling.table_bytes" (float_of_int (List.fold_left (fun a o -> a + o.table_bytes) 0 ops));
  (* each analysis's share of the ops' analysis time *)
  let all = Order.sum an in
  List.iter
    (fun name ->
      set ("analysis.share." ^ name)
        (Order.ratio
           (Order.sum
              (List.filter_map
                 (fun o -> if o.analysis = name then Some (ms (total o)) else None)
                 ops))
           all))
    (Analysis.names ())

(* --- the library's process-wide counters -------------------------------- *)

let counter_names =
  [ "unify.attempts"; "unify.failures"; "hashcons.hits"; "hashcons.misses"; "trie.nodes";
    "serve.domains_spawned" ]

let counters () = List.map (fun n -> (n, Metrics.counter_value n)) counter_names

let diff after before =
  List.map (fun (n, v) -> (n, v - Option.value ~default:0 (List.assoc_opt n before))) after

let add_counts a b =
  List.map (fun (n, v) -> (n, v + Option.value ~default:0 (List.assoc_opt n b))) a

let counts_json c = Metrics.Obj (List.map (fun (n, v) -> (n, Metrics.Int v)) c)

let counts_of_json = function
  | Metrics.Obj kv -> List.map (fun (n, v) -> (n, int_of_float (Procs.num v))) kv
  | _ -> []

(* Counter deltas from the processes whose counters reach the benchmark
   (the sweep children, the domains runner, the in-process replay);
   forked workers' counters die with them (ROADMAP item 2). *)
let library_counts out deltas =
  let v n = float_of_int (Option.value ~default:0 (List.assoc_opt n deltas)) in
  let set = Outcome.set out in
  set "logic.unify_attempts" (v "unify.attempts");
  set "logic.unify_fail_ratio" (Order.ratio (v "unify.failures") (v "unify.attempts"));
  set "logic.hashcons_hit_ratio"
    (Order.ratio (v "hashcons.hits") (v "hashcons.hits" +. v "hashcons.misses"));
  set "trie.nodes" (v "trie.nodes")

(* --- GC and CPU ------------------------------------------------------------ *)

type gc = { minor_words : float; majors : int; top_heap_words : int }

let gc_now () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; majors = s.Gc.major_collections;
    top_heap_words = s.Gc.top_heap_words }

(* GC work since [g0] (the top heap is the process's, not a delta). *)
let gc_since g0 =
  let g = gc_now () in
  { g with minor_words = g.minor_words -. g0.minor_words; majors = g.majors - g0.majors }

let gc_json g =
  Metrics.(Obj [ ("minor_words", Float g.minor_words); ("majors", Int g.majors);
                 ("top_heap_words", Int g.top_heap_words) ])

let gc_of_json j =
  let f k =
    let v = Procs.num (Option.value ~default:Metrics.Null (Metrics.member k j)) in
    if Float.is_nan v then 0. else v
  in
  { minor_words = f "minor_words"; majors = int_of_float (f "majors");
    top_heap_words = int_of_float (f "top_heap_words") }

let gc out g =
  let set = Outcome.set out in
  set "gc.minor_mwords" (g.minor_words /. 1e6);
  set "gc.major_collections" (float_of_int g.majors);
  set "gc.top_heap_mb" (float_of_int (g.top_heap_words * (Sys.word_size / 8)) /. 1048576.)

(* CPU seconds of the processes doing the analysis, against the wall
   time they had on [jobs] parallel workers. *)
let cpu out ~cpu_s ~wall ~jobs =
  Outcome.set out "cpu.analysis_s" cpu_s;
  Outcome.set out "cpu.busy_frac" (Order.ratio cpu_s (wall *. float_of_int jobs))

(* --- spans ------------------------------------------------------------------ *)

let layers = [ "preprocess"; "tabling"; "analysis" ]

(* Self time per analysis layer, the ops' own self time (everything the
   op paid outside the analysis phases), the layers-must-sum check, and
   the recorder's own cost.  [overhead_ms] is the traced minus the
   untraced op-latency median.

   The phases under an op are laid end to end, ending at the op's end,
   so its span tree fails to sum exactly when the analysis total its
   report gives is longer than the op's own latency: a report that
   over-counts, or an op timed around less than the analysis.  Each
   such op is a failed op. *)
let spans out (spans : Span.span list) ~overhead_ms =
  let set = Outcome.set out in
  let by_layer = Span.self_by_layer spans in
  List.iter
    (fun l -> set ("self_s." ^ l) (Option.value ~default:0. (List.assoc_opt l by_layer)))
    layers;
  let gaps = Span.op_gaps spans in
  let bad = List.filter (fun (_, _, g) -> g > 1e-6) gaps in
  List.iter
    (fun ((s : Span.span), _, g) ->
      Outcome.breach out
        (Printf.sprintf "op %d (%s): its layers miss its latency by %.6f s" s.Span.op s.Span.name g))
    bad;
  set "self_s.op" (Order.sum (List.map (fun (_, self, _) -> self) gaps));
  set "ledger.ops" (float_of_int (List.length gaps));
  set "ledger.gap_ops" (float_of_int (List.length bad));
  let n = List.length spans in
  set "trace.spans" (float_of_int n);
  set "trace.record_us_per_span" (Order.ratio (!Span.cost *. 1e6) (float_of_int n));
  set "trace.overhead_ms" overhead_ms
