(* The benchmark: one command that runs one seeded workload against the
   library and the praxd binary, checks every output, and prints its
   metrics as one JSON object on the last line of stdout.

     main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>

   --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
   with spans recorded at the benchmark's calls into each layer and
   prints the per-layer metrics, writing the spans to
   .perfbench/trace/<workload>-<seed>.json.  perfbench/README.md has the
   workloads, why each was chosen and what it should and should not
   show. *)

open Prax

let workloads =
  [
    ("engine-sweep", Sweep.run);
    ("edit-session", Serving.edit);
    ("batch", Batch.run);
  ]

(* The metric names and units, read from BENCHMARK.json at the root of
   the checkout, the one place that lists them: [section] is
   "end_to_end" or "per_layer". *)
let metrics_of section =
  let fail why =
    Printf.eprintf "perfbench: BENCHMARK.json: %s\n" why;
    exit 2
  in
  let doc =
    match Procs.read_file "BENCHMARK.json" with
    | None -> fail "not found; run from the repository root"
    | Some s -> (
        try Metrics.json_of_string s with Metrics.Json_error e -> fail e)
  in
  match Metrics.member section doc with
  | Some (Metrics.Arr l) ->
      List.map
        (fun m ->
          match (Metrics.member "name" m, Metrics.member "unit" m) with
          | Some (Metrics.Str n), Some (Metrics.Str u) -> (n, u)
          | _ -> fail ("a metric in " ^ section ^ " without a name or unit"))
        l
  | _ -> fail ("no " ^ section ^ " list")

(* A time must have been measured; any other unit reads 0 when the
   workload does not exercise its layer (no daemon in engine-sweep, no
   store outside edit-session, ...). *)
let is_time u = List.mem u [ "s"; "ms"; "us" ]

let dump_trace ~workload ~seed (out : Outcome.t) =
  let dir = Filename.concat Serving.work_root "trace" in
  if not (Sys.file_exists Serving.work_root) then Sys.mkdir Serving.work_root 0o755;
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let file = Filename.concat dir (Printf.sprintf "%s-%d.json" workload seed) in
  let spans = Span.all () in
  let open Metrics in
  let doc =
    Obj
      [
        ("workload", Str workload);
        ("seed", Int seed);
        ("self_s_by_layer", Obj (List.map (fun (l, v) -> (l, Float v)) (Span.self_by_layer spans)));
        ( "metrics",
          Obj
            (Hashtbl.fold (fun k v acc -> (k, Float v) :: acc) out.Outcome.metrics []
            |> List.sort compare) );
        ("spans", Span.to_json spans);
      ]
  in
  Out_channel.with_open_bin file (fun oc -> output_string oc (json_to_string doc));
  Printf.eprintf "perfbench: %d spans written to %s\n" (List.length spans) file

let run ~workload ~seed ~seconds ~traced =
  let f =
    match List.assoc_opt workload workloads with
    | Some f -> f
    | None ->
        Printf.eprintf "perfbench: unknown workload %s (one of: %s)\n" workload
          (String.concat ", " (List.map fst workloads));
        exit 2
  in
  if not (Sys.file_exists Procs.praxd_exe) then begin
    Printf.eprintf "perfbench: %s not built; run from the repository root via perfbench/run.py\n"
      Procs.praxd_exe;
    exit 2
  end;
  let wanted = metrics_of (if traced then "per_layer" else "end_to_end") in
  let out = Outcome.create () in
  f ~seed ~seconds ~traced out;
  if traced then dump_trace ~workload ~seed out;
  let missing = ref [] in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v =
          match Outcome.get out name with
          | Some v when Float.is_finite v -> v
          | _ ->
              if is_time unit then missing := name :: !missing;
              0.
        in
        (name, Metrics.Obj [ ("value", Metrics.Float v); ("unit", Metrics.Str unit) ]))
      wanted
  in
  List.iter (fun n -> Outcome.breach out ("no measurement for " ^ n)) !missing;
  if not out.Outcome.control_fired then
    Outcome.breach out "negative control: the output check did not fire";
  List.iter (fun r -> Printf.eprintf "perfbench: FAILED %s\n" r) (List.rev out.Outcome.reasons);
  let correct = out.Outcome.failed = 0 in
  print_endline
    (Metrics.json_to_string
       (Metrics.Obj
          [
            ("correct", Metrics.Bool correct);
            ("attempted", Metrics.Int out.Outcome.attempted);
            ("failed", Metrics.Int out.Outcome.failed);
            ("metrics", Metrics.Obj metrics);
          ]));
  exit (if correct then 0 else 1)

let () =
  (* the analysis processes' own nursery (bin/xanalyze.ml, bin/praxd.ml,
     bench/main.ml all use 8 M words) *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 };
  Analyses.ensure ();
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let calls = ref 0 in
  let child = ref (-1) and domains = ref 0 and golden = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--child-pass", Arg.Set_int child, "N (internal) engine-sweep process N");
      ( "--child-domains",
        Arg.Set_int domains,
        "N (internal) Domains.run calls over the batch list repeated N times" );
      ("--calls", Arg.Set_int calls, "N (internal) how many --child-domains calls");
      ("--write-golden", Arg.Set golden, " print the golden payload digests");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !child >= 0 then Sweep.child ~part:!child ~traced:(!trace = 1)
  else if !domains > 0 then Batch.child_domains ~seed:!seed ~repeats:!domains ~calls:!calls
  else if !golden then Sweep.write_golden ()
  else run ~workload:!workload ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1)
