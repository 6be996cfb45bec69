(* The workload that drives praxd over its socket: edit-session (one
   edit, then four re-reads the resident cache answers), a closed loop
   of two client threads in this process, each sending its next request
   when its last reply has arrived. *)

open Prax

let work_root = ".perfbench"

let counter = ref 0

(* A fresh directory for one daemon's socket, log and store, inside the
   checkout. *)
let fresh_dir tag =
  if not (Sys.file_exists work_root) then Sys.mkdir work_root 0o755;
  incr counter;
  let d = Filename.concat work_root (Printf.sprintf "%s-%d-%d" tag (Unix.getpid ()) !counter) in
  Sys.mkdir d 0o755;
  d

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Unix.unlink p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Files and bytes under a directory. *)
let rec disk_usage p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
      Array.fold_left
        (fun (f, b) e ->
          let f', b' = disk_usage (Filename.concat p e) in
          (f + f', b + b'))
        (0, 0) (Sys.readdir p)
  | Unix.S_REG -> (1, (Unix.lstat p).Unix.st_size)
  | _ -> (0, 0)
  | exception Unix.Unix_error _ -> (0, 0)

(* --- requests and their records ------------------------------------------------ *)

type kind = Write | Read

type req = {
  kind : kind;
  cell : Inputs.cell;
  src : string;
  t0 : float;
  t1 : float;
  reply : (string * Analysis.parsed_report option, string) result;
  traced : bool;
}

let lat r = r.t1 -. r.t0

let records : req list ref = ref []
let rec_lock = Mutex.create ()

let locked f =
  Mutex.lock rec_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock rec_lock) f

let next_op = ref 0

(* One timed analyze request.  Under tracing, the Client.request call
   becomes a span, recorded once the reply is in, with the worker's
   reported phases as its children. *)
let request (d : Procs.praxd) ~client ~kind (c : Inputs.cell) src =
  let op = locked (fun () -> incr next_op; !next_op) in
  let req = Procs.analyze_request ~id:op ~client c src in
  let traced = !Span.enabled in
  let t0 = Analysis.now () in
  let reply = Procs.analyze ~socket:d.Procs.socket req in
  let t1 = Analysis.now () in
  (if traced then
     let id = Span.add ~op ~layer:"daemon" "Client.request" t0 t1 in
     match reply with
     | Ok (_, Some p) when kind <> Read ->
         Span.add_phases ~parent:id ~op ~t_end:t1 p.Analysis.p_phases
     | _ -> ());
  let r = { kind; cell = c; src; t0; t1; reply; traced } in
  locked (fun () -> records := r :: !records);
  r

(* Run [body i], which makes one timed op, in a loop on [clients]
   threads until [until], and on past it until [Order.tail_samples] ops
   are in, so the window's p90 has the samples it needs.  [max_extra]
   seconds past [until] it stops anyway, and the p90 check reports the
   shortfall. *)
let max_extra = 40.

let closed_loop ~clients ~until body =
  let failures = ref [] in
  let done_ = Atomic.make 0 in
  let going () =
    let t = Analysis.now () in
    (t < until || Atomic.get done_ < Order.tail_samples) && t < until +. max_extra
  in
  let threads =
    List.init clients (fun i ->
        Thread.create
          (fun () ->
            try
              while going () do
                body i;
                Atomic.incr done_
              done
            with e -> locked (fun () -> failures := Printexc.to_string e :: !failures))
          ())
  in
  List.iter Thread.join threads;
  !failures

let text_of r = match r.reply with Ok (_, Some p) -> Some p.Analysis.p_text | _ -> None

(* The cross-path check: the daemon's report text must equal the
   expected text (an in-process payload_text for the same source, or
   the version's first answer), with the wire status the request kind
   implies.  Without [expected], only the status and report are
   checked. *)
let check_reply ~expected_status ?expected r =
  let id = Inputs.cell_id r.cell in
  match r.reply with
  | Error e -> [ id ^ ": " ^ e ]
  | Ok (st, _) when st <> expected_status ->
      [ Printf.sprintf "%s: status %s, expected %s" id st expected_status ]
  | Ok (_, None) -> [ id ^ ": no report" ]
  | Ok (_, Some p) when Option.fold ~none:false ~some:(( <> ) p.Analysis.p_text) expected ->
      [ id ^ ": daemon text differs from the expected text" ]
  | Ok _ -> []

let in_process (c : Inputs.cell) src =
  let a = Inputs.find_analysis c.Inputs.analysis in
  (Analysis.run a ~config:c.Inputs.config ~guard:(Sweep.guard ()) src).Analysis.payload_text

(* Up to [n] records, a seeded choice when there are more. *)
let sample ~seed ~n l =
  if List.length l <= n then l
  else List.filteri (fun i _ -> i < n) (Inputs.shuffle (Inputs.rng ~seed "verify-sample") l)

(* Check [rs] against in-process runs: all of them, or a seeded sample
   of [n] with only the status checked for the rest. *)
let check_all out ~seed ~n ~expected_status rs =
  let sampled = sample ~seed ~n rs in
  List.iter
    (fun r ->
      Outcome.op out
        (if List.memq r sampled then
           check_reply ~expected_status ~expected:(in_process r.cell r.src) r
         else check_reply ~expected_status r))
    rs;
  sampled

(* Run [f] while a thread pings the daemon every 2 ms.  A finished
   worker is reaped only when something wakes praxd's select loop
   (ROADMAP item 1), so a lone request waits 0-0.5 s at random; the
   pings keep set-up time to the work done in it.  Timed ops never run
   under a waker. *)
let with_waker (d : Procs.praxd) f =
  let stop = Atomic.make false in
  let t =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          ignore (Procs.control d.Procs.socket Procs.Wire.Ping);
          Thread.delay 0.002
        done)
      ()
  in
  Fun.protect ~finally:(fun () -> Atomic.set stop true; Thread.join t) f

(* The set-up, [k] times: the median is the set-up time, and every
   daemon but the last is drained again at once (its hygiene checked
   like the kept one's). *)
let setups ~k out setup =
  let rec go i acc =
    let t0 = Analysis.now () in
    let s = setup () in
    let dt = Analysis.now () -. t0 in
    if i < k then begin
      let d, dir = s in
      List.iter (Outcome.breach out) (Procs.drain d).Procs.breaches;
      rm_rf dir;
      go (i + 1) (dt :: acc)
    end
    else (s, Order.median (dt :: acc))
  in
  go 1 []

let cpu_total (d : Procs.praxd) =
  let own, workers = Procs.cpu_seconds (string_of_int d.Procs.pid) in
  own +. workers

(* The measured window(s): untraced for [seconds], or, under tracing,
   untraced for the first half and traced for the second.  A window
   runs on until it holds [Order.tail_samples] ops. *)
let windows ~seconds ~traced =
  let s = float_of_int seconds in
  if traced then [ (false, s /. 2.); (true, s /. 2.) ] else [ (false, s) ]

(* Wall and daemon CPU seconds of the untraced windows. *)
let untraced_totals windows =
  List.fold_left
    (fun (w, c) (tr, wall, cpu) -> if tr then (w, c) else (w +. wall, c +. cpu))
    (0., 0.) windows

(* The end-to-end set over the untraced [timed] records; the ledger
   over the traced ones is [traced_metrics]. *)
let finish out ~setup_s ~timed ~ops ~wall ~cpu ~(drained : Procs.drained) =
  let set = Outcome.set out in
  let lats = List.map (fun r -> 1000. *. lat r) timed in
  set "setup_s" setup_s;
  set "p50_ms" (Order.median lats);
  Outcome.set_p90 out "p90_ms" lats;
  set "ops_per_s" (Order.ratio (float_of_int ops) wall);
  set "peak_rss_mb" drained.Procs.d_peak_rss_mb;
  set "cpu_ms_per_op" (Order.ratio (1000. *. cpu) (float_of_int ops))

let traced_metrics out ~primary ~daemon_cpu ~wall ~gc =
  let traced, untraced = List.partition (fun r -> r.traced) primary in
  let med l = Order.median (List.map (fun r -> 1000. *. lat r) l) in
  Ledger.ops out
    (List.filter_map
       (fun r ->
         match r.reply with Ok (_, Some p) -> Some (Ledger.of_parsed ~lat:(lat r) p) | _ -> None)
       traced);
  Ledger.spans out (Span.all ()) ~overhead_ms:(med traced -. med untraced);
  Ledger.gc out gc;
  Ledger.cpu out ~cpu_s:daemon_cpu ~wall ~jobs:2

let stat_delta before after name =
  float_of_int (Procs.stat_counter after name - Procs.stat_counter before name)

let daemon_counts out ~before ~after ~requests =
  let set = Outcome.set out and dv = stat_delta before after in
  set "serve.workers_spawned" (dv "serve.workers_spawned");
  set "serve.workers_spawned_per_req"
    (Order.ratio (dv "serve.workers_spawned") (float_of_int requests));
  set "serve.retries" (dv "serve.retries");
  set "serve.crashes" (dv "serve.crashes");
  set "daemon.shed" (dv "daemon.shed_queue" +. dv "daemon.shed_rate");
  set "daemon.warm_hits" (dv "daemon.warm_hits");
  set "daemon.cache_evictions" (dv "daemon.cache_evictions")

(* --- edit-session ----------------------------------------------------------------- *)

(* The two sessions: strictness on event and groundness on read. *)
let sessions () =
  let find an name =
    List.find
      (fun (c : Inputs.cell) -> c.Inputs.analysis = an && c.Inputs.name = name)
      (Inputs.matrix ())
  in
  [| find "strictness" "event"; find "groundness" "read" |]

let reads_per_edit = 4

type replayed = {
  runs : (float * float) list;  (** (run_incr, scratch run) seconds per edit *)
  loads : int;
  hits : int;
  io_s : float;  (** seconds in the cache's load and save *)
  saved : int;  (** fragment bytes saved *)
  counts : (string * int) list;  (** library counter deltas *)
}

(* Replay a session's edits in process through Analysis.run_incr on a
   fresh store, each cache load and save a span, and check each edit's
   text against a from-scratch Analysis.run and the daemon's reply.
   Forked workers' incr counters never reach the daemon's stats, so
   this is where the incr and store layers are measured. *)
let replay out ~(base : Inputs.cell) ~edits =
  let a = Inputs.find_analysis base.Inputs.analysis in
  let dir = fresh_dir "replay" in
  let store = Store.open_dir dir in
  let table_class = Option.get (Analysis.table_class a ~config:base.Inputs.config ()) in
  let inner = Incr.Incr.cache_of_store store ~analysis:a.Analysis.name ~table_class in
  let loads = ref 0 and hits = ref 0 and io_s = ref 0. and saved = ref 0 in
  let parent = ref 0 in
  let timed name f =
    let t0 = Analysis.now () in
    Fun.protect
      ~finally:(fun () -> io_s := !io_s +. (Analysis.now () -. t0))
      (fun () -> Span.with_span ~parent:!parent ~layer:"store" name (fun _ -> f ()))
  in
  let cache =
    {
      Analysis.cache_load =
        (fun k ->
          incr loads;
          let v = timed "cache_load" (fun () -> inner.Analysis.cache_load k) in
          if v <> None then incr hits;
          v);
      cache_save =
        (fun k v ->
          saved := !saved + String.length v;
          timed "cache_save" (fun () -> inner.Analysis.cache_save k v));
    }
  in
  let run_incr src =
    Analysis.run_incr a ~config:base.Inputs.config ~guard:(Sweep.guard ()) ~cache src
  in
  ignore (run_incr base.Inputs.source);
  loads := 0;
  hits := 0;
  io_s := 0.;
  saved := 0;
  let before = Ledger.counters () in
  Span.enabled := true;
  let runs =
    List.map
      (fun (r : req) ->
        let t0 = Analysis.now () in
        let inc =
          Span.with_span ~layer:"incr" "Analysis.run_incr" (fun id ->
              parent := id;
              run_incr r.src)
        in
        let t1 = Analysis.now () in
        let scratch =
          Span.with_span ~layer:"replay" "Analysis.run" (fun _ -> in_process r.cell r.src)
        in
        let t2 = Analysis.now () in
        Outcome.op out
          ((if inc.Analysis.payload_text <> scratch then
              [ Inputs.cell_id base ^ ": run_incr differs from run" ]
            else [])
          @ check_reply ~expected_status:"complete" ~expected:scratch r);
        (t1 -. t0, t2 -. t1))
      edits
  in
  Span.enabled := false;
  rm_rf dir;
  { runs; loads = !loads; hits = !hits; io_s = !io_s; saved = !saved;
    counts = Ledger.diff (Ledger.counters ()) before }

let edit ~seed ~seconds ~traced out =
  let bases = sessions () in
  let gens = ref [||] and base_texts = Array.make (Array.length bases) "" in
  let setup () =
    gens :=
      Array.mapi
        (fun i (b : Inputs.cell) ->
          Inputs.unique_edits ~seed:(seed + (1000 * i)) b)
        bases;
    let dir = fresh_dir "edit" in
    let d = Procs.start_praxd ~dir [ "--incremental"; "--store"; Filename.concat dir "store" ] in
    (* the base programs, analyzed once: they fill the store's fragments *)
    with_waker d (fun () ->
        Array.iteri
          (fun i (b : Inputs.cell) ->
            let req = Procs.analyze_request ~id:0 ~client:"setup" b b.Inputs.source in
            match Procs.analyze ~socket:d.Procs.socket req with
            | Ok ("complete", Some p) -> base_texts.(i) <- p.Analysis.p_text
            | _ ->
                Outcome.breach out ("base analysis of " ^ Inputs.cell_id b ^ " did not complete"))
          bases);
    (d, dir)
  in
  let (d, dir), setup_s = setups ~k:5 out setup in
  let store_dir = Filename.concat dir "store" in
  let before = Procs.stats d in
  let rngs = Array.init 2 (fun i -> Inputs.rng ~seed (Printf.sprintf "reads-%d" i)) in
  (* per session: the versions answered so far, with the text returned *)
  let versions =
    Array.mapi (fun i (b : Inputs.cell) -> ref [ (b.Inputs.source, base_texts.(i)) ]) bases
  in
  let read_wall = ref 0. in
  let gc0 = Ledger.gc_now () in
  let measured =
    List.map
      (fun (tr, len) ->
        Span.enabled := tr;
        let cpu0 = cpu_total d and t0 = Analysis.now () in
        let errs =
          closed_loop ~clients:2 ~until:(t0 +. len) (fun i ->
              let base = bases.(i) and client = Printf.sprintf "session-%d" i in
              let src = !gens.(i) () in
              let w = request d ~client ~kind:Write base src in
              (match text_of w with
              | Some t -> versions.(i) := (src, t) :: !(versions.(i))
              | None -> ());
              let vs = Array.of_list !(versions.(i)) in
              for _ = 1 to reads_per_edit do
                let src, _ = vs.(Random.State.int rngs.(i) (Array.length vs)) in
                let r = request d ~client ~kind:Read base src in
                locked (fun () -> read_wall := !read_wall +. lat r)
              done)
        in
        Span.enabled := false;
        List.iter (Outcome.breach out) errs;
        (tr, Analysis.now () -. t0, cpu_total d -. cpu0))
      (windows ~seconds ~traced)
  in
  let gc = Ledger.gc_since gc0 in
  let after = Procs.stats d in
  let files, bytes = disk_usage store_dir in
  let drained = Procs.drain d in
  List.iter (Outcome.breach out) drained.Procs.breaches;
  rm_rf dir;
  let reqs = List.rev !records in
  let writes = List.filter (fun r -> r.kind = Write) reqs in
  let reads = List.filter (fun r -> r.kind = Read) reqs in
  (* writes: against an in-process from-scratch run, all of the cheap
     groundness session and a seeded sample of two strictness edits
     (a scratch event run takes a second); reads: byte-equal to the
     text the daemon first answered for that version *)
  let event_w, other_w = List.partition (fun r -> r.cell.Inputs.analysis = "strictness") writes in
  let checked =
    check_all out ~seed ~n:max_int ~expected_status:"complete" other_w
    @ check_all out ~seed ~n:2 ~expected_status:"complete" event_w
  in
  let first_text = Hashtbl.create 64 in
  Array.iteri
    (fun i v -> List.iter (fun (src, t) -> Hashtbl.replace first_text (i, src) t) !v)
    versions;
  let session r = if r.cell.Inputs.name = bases.(0).Inputs.name then 0 else 1 in
  List.iter
    (fun r ->
      Outcome.op out
        (check_reply ~expected_status:"cached"
           ~expected:(Hashtbl.find first_text (session r, r.src))
           r))
    reads;
  (match checked with
  | r :: _ ->
      let wrong = Outcome.corrupt (in_process r.cell r.src) in
      Outcome.control out (fun () ->
          check_reply ~expected_status:"complete" ~expected:wrong r <> [])
  | [] -> ());
  let u_wall, u_cpu = untraced_totals measured in
  let untraced = List.filter (fun r -> not r.traced) reqs in
  let u_writes = List.filter (fun r -> r.kind = Write) untraced in
  finish out ~setup_s ~timed:u_writes ~ops:(List.length untraced) ~wall:u_wall ~cpu:u_cpu ~drained;
  if traced then begin
    (* the in-process replay of each session's first four traced edits *)
    let traced_writes = List.filter (fun r -> r.traced) writes in
    let replays =
      Array.to_list
        (Array.mapi
           (fun i b ->
             replay out ~base:b
               ~edits:
                 (List.filteri (fun j _ -> j < 4)
                    (List.filter (fun r -> session r = i) traced_writes)))
           bases)
    in
    let _, t_wall, t_cpu = List.find (fun (tr, _, _) -> tr) measured in
    traced_metrics out ~primary:writes ~daemon_cpu:t_cpu ~wall:t_wall ~gc;
    daemon_counts out ~before ~after ~requests:(List.length reqs);
    let set = Outcome.set out in
    let n_reads = float_of_int (List.length reads) in
    set "daemon.hit_ratio" (Order.ratio (stat_delta before after "daemon.warm_hits") n_reads);
    set "daemon.hits_per_s" (Order.ratio n_reads !read_wall);
    set "store.files" (float_of_int files);
    set "store.bytes" (float_of_int bytes);
    set "store.bytes_per_edit"
      (Order.ratio (float_of_int bytes) (float_of_int (List.length writes)));
    let sumi f = float_of_int (List.fold_left (fun a x -> a + f x) 0 replays) in
    let runs = List.concat_map (fun x -> x.runs) replays in
    let run_s = Order.sum (List.map fst runs) and scratch_s = Order.sum (List.map snd runs) in
    set "incr.load_hit_ratio" (Order.ratio (sumi (fun x -> x.hits)) (sumi (fun x -> x.loads)));
    set "incr.saved_bytes" (sumi (fun x -> x.saved));
    set "incr.cache_io_frac" (Order.ratio (Order.sum (List.map (fun x -> x.io_s) replays)) run_s);
    set "incr.speedup" (Order.ratio scratch_s run_s);
    Ledger.library_counts out
      (List.fold_left (fun acc x -> Ledger.add_counts x.counts acc) [] replays)
  end
