(* Tests for resource-governed evaluation (docs/ROBUSTNESS.md): budget
   exhaustion degrades to sound partial results, the fault-injection
   sweep proves no engine event can wreck the tables, and non-budget
   exceptions restore exact-answer invariants. *)

open Prax_logic
open Prax_tabling
open Prax_guard

let parse = Parser.parse_term
let show t = Pretty.term_to_string t

let engine_of ?guard src =
  let db = Database.create () in
  ignore (Database.load_string db src);
  Engine.create ?guard db

(* nat/1 diverges under concrete tabling: every derivation step yields a
   fresh deeper answer, so evaluation only stops when a budget trips. *)
let nat_src = "nat(0). nat(s(X)) :- nat(X).\nbase(1). base(2)."

(* All-ground transitive closure: full evaluation terminates, answers
   are ground, so "instance of" below is plain unifiability. *)
let path_src =
  "edge(a,b). edge(b,c). edge(c,a). edge(b,d).\n\
   path(X,Y) :- edge(X,Y).\n\
   path(X,Y) :- edge(X,Z), path(Z,Y).\n\
   base(1). base(2)."

let reason_label = function
  | Guard.Complete -> "complete"
  | Guard.Partial { reason; _ } -> Guard.reason_to_string reason

(* --- deterministic budget exhaustion ---------------------------------- *)

let test_steps_exhaustion () =
  let e = engine_of ~guard:(Guard.create ~max_steps:500 ()) nat_src in
  let n = ref 0 in
  let status = Engine.run_status e (parse "nat(X)") (fun _ -> incr n) in
  (match status with
  | Guard.Partial { reason = Guard.Steps; exhausted_entries } ->
      Alcotest.(check bool) "some entry widened" true (exhausted_entries >= 1)
  | s -> Alcotest.failf "expected partial(steps), got %s" (reason_label s));
  Alcotest.(check bool) "answers were delivered before the trip" true (!n > 0);
  Alcotest.(check bool) "tables consistent after abort" true
    (Engine.tables_consistent ~after_abort:true e);
  (* the widened entry answers its own most-general call *)
  let widened = Engine.answers_for e ("nat", 1) in
  Alcotest.(check bool) "most-general answer present" true
    (List.exists (fun a -> Unify.unifiable a (parse "nat(anything)")) widened);
  Alcotest.(check bool) "forced completions counted" true
    ((Engine.stats e).Engine.forced >= 1);
  (* same engine instance, fresh predicate: still fully usable *)
  Engine.set_guard e Guard.unlimited;
  Alcotest.(check int) "fresh query completes exactly" 2
    (List.length (Engine.query e (parse "base(X)")))

let test_deadline_exhaustion () =
  let t0 = Unix.gettimeofday () in
  let e = engine_of ~guard:(Guard.create ~timeout:0.05 ()) nat_src in
  let status = Engine.run_status e (parse "nat(X)") (fun _ -> ()) in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match status with
  | Guard.Partial { reason = Guard.Deadline; _ } -> ()
  | s -> Alcotest.failf "expected partial(deadline), got %s" (reason_label s));
  Alcotest.(check bool) "deadline not tripped early" true (elapsed >= 0.04);
  Alcotest.(check bool)
    (Printf.sprintf "50ms budget honored within tolerance (took %.3fs)"
       elapsed)
    true (elapsed < 0.5)

let test_table_space_exhaustion () =
  let e = engine_of ~guard:(Guard.create ~max_table_bytes:2048 ()) nat_src in
  let status = Engine.run_status e (parse "nat(X)") (fun _ -> ()) in
  (match status with
  | Guard.Partial { reason = Guard.Table_space; _ } -> ()
  | s -> Alcotest.failf "expected partial(table-space), got %s"
           (reason_label s));
  Alcotest.(check bool) "tables consistent after abort" true
    (Engine.tables_consistent ~after_abort:true e)

let test_sticky_retrip () =
  (* a driver sharing one guard across queries: after the first trip the
     rest degrade immediately instead of burning a fresh budget each *)
  let g = Guard.create ~max_steps:100 () in
  let e1 = engine_of ~guard:g nat_src in
  ignore (Engine.run_status e1 (parse "nat(X)") (fun _ -> ()));
  let steps_after_first = Guard.steps g in
  let e2 = engine_of ~guard:g nat_src in
  let status = Engine.run_status e2 (parse "nat(X)") (fun _ -> ()) in
  Alcotest.(check bool) "second run partial" true (Guard.is_partial status);
  Alcotest.(check bool) "second run tripped on its first check" true
    (Guard.steps g <= steps_after_first + 1)

let test_reset_after_abort () =
  let e = engine_of ~guard:(Guard.create ~max_steps:300 ()) path_src in
  ignore (Engine.run_status e (parse "nat(X)") (fun _ -> ()));
  Engine.set_guard e Guard.unlimited;
  Engine.reset_tables e;
  Alcotest.(check int) "stats cleared" 0 (Engine.stats e).Engine.forced;
  Alcotest.(check int) "space accounting cleared" 0
    (Engine.table_space_bytes e);
  let sols, status = Engine.query_status e (parse "path(a,Y)") in
  Alcotest.(check string) "complete after reset" "complete"
    (reason_label status);
  Alcotest.(check int) "exact answers after reset" 4 (List.length sols)

(* --- fault-injection sweep -------------------------------------------- *)

let full_path_answers () =
  let e = engine_of path_src in
  Engine.query e (parse "path(X,Y)")

let path_events () =
  Inject.events_of (fun g ->
      let e = engine_of ~guard:g path_src in
      Engine.run e (parse "path(X,Y)") (fun _ -> ()))

(* Install [inject ~probe] as [e]'s guard, with a probe that checks the
   table invariants as they stand at the fault, before recovery scrubs
   anything: every entry closed so far must already be completed,
   consumer-free, and closed over its deps.  The flag holds the verdict. *)
let with_probe e inject =
  let ok = ref true in
  Engine.set_guard e (inject ~probe:(fun () -> ok := Engine.tables_consistent e));
  ok

(* Abort at every event of the reference run: the partial tables must
   over-approximate the full answer set wherever the queried predicate
   was explored at all, and the engine must stay usable. *)
let test_inject_abort_sweep () =
  let full = full_path_answers () in
  Alcotest.(check bool) "reference run nonempty" true (full <> []);
  let events = path_events () in
  Alcotest.(check bool) "reference run has events" true (events > 0);
  for n = 1 to events do
    let e = engine_of path_src in
    let at_abort = with_probe e (fun ~probe -> Inject.abort_at ~probe n) in
    let status = Engine.run_status e (parse "path(X,Y)") (fun _ -> ()) in
    (match status with
    | Guard.Partial { reason = Guard.Fault _; _ } -> ()
    | s ->
        Alcotest.failf "event %d: expected partial(fault), got %s" n
          (reason_label s));
    if not !at_abort then
      Alcotest.failf "event %d: tables inconsistent at the abort point" n;
    if not (Engine.tables_consistent ~after_abort:true e) then
      Alcotest.failf "event %d: tables inconsistent after abort" n;
    (* soundness: once the predicate has a table entry, every true
       answer must be an instance of some tabled answer *)
    if Engine.calls_for e ("path", 2) <> [] then begin
      let partial = Engine.answers_for e ("path", 2) in
      List.iter
        (fun ans ->
          if not (List.exists (fun p -> Unify.unifiable p ans) partial) then
            Alcotest.failf "event %d: true answer %s not covered" n (show ans))
        full
    end;
    (* the same engine instance completes a fresh query afterwards *)
    Engine.set_guard e Guard.unlimited;
    if List.length (Engine.query e (parse "base(X)")) <> 2 then
      Alcotest.failf "event %d: engine unusable after abort" n
  done

(* A non-budget exception (a crashing builtin, say) recovers to *exact*
   answers: interrupted entries are discarded, not widened, so re-running
   unlimited re-derives precisely the reference answer set. *)
let test_inject_raise_sweep () =
  let full = List.sort compare (List.map show (full_path_answers ())) in
  let events = path_events () in
  for n = 1 to events do
    let e = engine_of path_src in
    let at_raise = with_probe e (fun ~probe -> Inject.raise_at ~probe n Exit) in
    (match Engine.run_status e (parse "path(X,Y)") (fun _ -> ()) with
    | _ -> Alcotest.failf "event %d: expected the injected raise" n
    | exception Exit -> ());
    if not !at_raise then
      Alcotest.failf "event %d: tables inconsistent at the raise point" n;
    if not (Engine.tables_consistent ~after_abort:true e) then
      Alcotest.failf "event %d: tables inconsistent after recovery" n;
    Engine.set_guard e Guard.unlimited;
    let again =
      List.sort compare (List.map show (Engine.query e (parse "path(X,Y)")))
    in
    if again <> full then
      Alcotest.failf "event %d: inexact answers after recovery" n;
    if not (Engine.tables_consistent e) then
      Alcotest.failf "event %d: tables inconsistent after the re-run" n
  done

(* --- partial results are sound at the analysis level ------------------- *)

let test_depthk_partial_sound () =
  let module A = Prax_depthk.Analyze in
  let src = path_src in
  let fullrep = A.analyze ~k:1 src in
  Alcotest.(check string) "reference complete" "complete"
    (reason_label fullrep.A.status);
  let partrep = A.analyze ~guard:(Guard.create ~max_steps:10 ()) ~k:1 src in
  Alcotest.(check bool) "budgeted run partial" true
    (Guard.is_partial partrep.A.status);
  (* claims may only weaken: anything the partial report asserts must
     also hold in the reference report *)
  List.iter
    (fun (pr : A.pred_result) ->
      match A.result_for fullrep pr.A.pred with
      | None -> Alcotest.fail "predicate sets differ"
      | Some fr ->
          if pr.A.never_succeeds && not fr.A.never_succeeds then
            Alcotest.failf "unsound never_succeeds claim for %s"
              (fst pr.A.pred);
          Array.iteri
            (fun i d ->
              if d && not fr.A.definite.(i) then
                Alcotest.failf "unsound definiteness claim for %s arg %d"
                  (fst pr.A.pred) (i + 1))
            pr.A.definite)
    partrep.A.results

let test_sld_partial () =
  let db = Database.create () in
  ignore (Database.load_string db nat_src);
  let sols, status =
    Sld.solutions_status ~guard:(Guard.create ~max_steps:200 ()) db
      (parse "nat(X)")
  in
  (match status with
  | Guard.Partial { reason = Guard.Steps; _ } -> ()
  | s -> Alcotest.failf "expected partial(steps), got %s" (reason_label s));
  Alcotest.(check bool) "prefix of solutions returned" true (sols <> []);
  let sols2, status2 =
    Sld.solutions_status ~guard:(Guard.create ~max_steps:200 ()) db
      (parse "base(X)")
  in
  Alcotest.(check string) "terminating goal complete" "complete"
    (reason_label status2);
  Alcotest.(check int) "all solutions" 2 (List.length sols2)

let test_datalog_partial () =
  let module D = Prax_bottomup.Datalog in
  let x = Term.fresh_var ()
  and y = Term.fresh_var ()
  and z = Term.fresh_var () in
  let a pred args = { D.pred; args = Array.of_list args } in
  let fact p args = { D.head = a p args; body = [] } in
  let rules =
    [
      { D.head = a ("tc", 2) [ x; y ]; body = [ a ("edge", 2) [ x; y ] ] };
      {
        D.head = a ("tc", 2) [ x; z ];
        body = [ a ("edge", 2) [ x; y ]; a ("tc", 2) [ y; z ] ];
      };
      fact ("edge", 2) [ Term.atom "a"; Term.atom "b" ];
      fact ("edge", 2) [ Term.atom "b"; Term.atom "c" ];
      fact ("edge", 2) [ Term.atom "c"; Term.atom "d" ];
      fact ("edge", 2) [ Term.atom "d"; Term.atom "a" ];
    ]
  in
  let intensional, db = D.load rules in
  let st = D.seminaive intensional db in
  Alcotest.(check string) "unlimited run complete" "complete"
    (reason_label st.D.status);
  let full_tc = D.tuples_of db ("tc", 2) in
  let intensional2, db2 = D.load rules in
  let st2 =
    D.seminaive ~guard:(Guard.create ~max_steps:5 ()) intensional2 db2
  in
  Alcotest.(check bool) "budgeted run partial" true
    (Guard.is_partial st2.D.status);
  Alcotest.(check bool) "no facts invented" true
    (D.fact_count db2 <= D.fact_count db);
  (* bottom-up partial results under-approximate: every derived fact is
     a true fact *)
  List.iter
    (fun tup ->
      if not (List.mem tup full_tc) then
        Alcotest.fail "partial run derived an untrue fact")
    (D.tuples_of db2 ("tc", 2))

(* --- guard unit behavior ----------------------------------------------- *)

let test_duration_of_string () =
  let check_dur s expect =
    match Guard.duration_of_string s with
    | Some v -> Alcotest.(check (float 1e-9)) s expect v
    | None -> Alcotest.failf "failed to parse %S" s
  in
  check_dur "100ms" 0.1;
  check_dur "2s" 2.0;
  check_dur "1.5s" 1.5;
  check_dur "90us" 9e-5;
  check_dur "2m" 120.0;
  check_dur "250" 250.0;
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "%S rejected" s)
        true
        (Guard.duration_of_string s = None))
    [ "bogus"; "-5ms"; "5h"; "" ]

let test_combine () =
  let p n =
    Guard.Partial { reason = Guard.Steps; exhausted_entries = n }
  in
  Alcotest.(check string) "complete unit" "complete"
    (Guard.status_to_string (Guard.combine Guard.Complete Guard.Complete));
  (match Guard.combine Guard.Complete (p 3) with
  | Guard.Partial { exhausted_entries = 3; _ } -> ()
  | _ -> Alcotest.fail "complete is the unit");
  match
    Guard.combine (p 2)
      (Guard.Partial { reason = Guard.Deadline; exhausted_entries = 5 })
  with
  | Guard.Partial { reason = Guard.Steps; exhausted_entries = 7 } -> ()
  | _ -> Alcotest.fail "partials keep the first reason and sum counts"

let test_schema_versioning () =
  let module M = Prax_metrics.Metrics in
  Alcotest.(check int) "schema bumped for the incr counter family" 6
    M.schema_version;
  Alcotest.(check bool) "v1 documents still accepted" true
    (M.schema_version_supported 1);
  Alcotest.(check bool) "current version accepted" true
    (M.schema_version_supported M.schema_version);
  Alcotest.(check bool) "future versions rejected" false
    (M.schema_version_supported (M.schema_version + 1));
  Alcotest.(check bool) "v0 rejected" false (M.schema_version_supported 0)

let () =
  Alcotest.run "guard"
    [
      ( "budgets",
        [
          Alcotest.test_case "steps exhaustion degrades soundly" `Quick
            test_steps_exhaustion;
          Alcotest.test_case "deadline honored within tolerance" `Quick
            test_deadline_exhaustion;
          Alcotest.test_case "table-space budget trips" `Quick
            test_table_space_exhaustion;
          Alcotest.test_case "sticky budgets re-trip" `Quick
            test_sticky_retrip;
          Alcotest.test_case "reset_tables clears abort state" `Quick
            test_reset_after_abort;
        ] );
      ( "fault-injection",
        [
          Alcotest.test_case "abort sweep: sound over-approximation" `Quick
            test_inject_abort_sweep;
          Alcotest.test_case "raise sweep: exact recovery" `Quick
            test_inject_raise_sweep;
        ] );
      ( "analyses",
        [
          Alcotest.test_case "depth-k partial claims only weaken" `Quick
            test_depthk_partial_sound;
          Alcotest.test_case "sld partial under-approximates" `Quick
            test_sld_partial;
          Alcotest.test_case "datalog partial under-approximates" `Quick
            test_datalog_partial;
        ] );
      ( "unit",
        [
          Alcotest.test_case "duration_of_string" `Quick
            test_duration_of_string;
          Alcotest.test_case "status combine" `Quick test_combine;
          Alcotest.test_case "stats schema versioning" `Quick
            test_schema_versioning;
        ] );
    ]
