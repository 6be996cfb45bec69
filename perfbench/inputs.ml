(* Seeded workload inputs, all derived from the corpus registry
   (Prax.Benchdata.Registry) and the deterministic edit generator
   (Prax.Incr.Mutate).  The seed is the only source of variation: the
   same seed gives the same cells, order and sources. *)

open Prax
module R = Benchdata.Registry

(* One (analysis x program x config) cell of the matrix. *)
type cell = {
  analysis : string;
  name : string;  (** corpus program name *)
  config : Analysis.config;
  source : string;
  tag : string;  (** ["analysis"] or ["analysis-nosupp"]: the cell class *)
}

let cell_id c = c.tag ^ "." ^ c.name

let find_analysis name =
  match Analysis.find name with
  | Some a -> a
  | None -> failwith ("analysis not registered: " ^ name)

(* The registered (analysis x corpus) matrix, chosen the way the engine
   baseline (bench/main.ml's bench_corpus, BENCH_engine.json) chooses
   it: each analysis takes the whole corpus of its source kind at its
   default config, except that depthk takes the Table-4 subset at k=1
   and groundness adds the stress corpus in mode=def.  A newly
   registered analysis joins the matrix by its kind. *)
let matrix () =
  List.concat_map
    (fun (a : Analysis.t) ->
      let an = a.Analysis.name in
      let cell config (name, source) = { analysis = an; name; config; source; tag = an } in
      let logic config =
        List.map (fun (b : R.logic_bench) -> cell config (b.R.name, b.R.source))
      in
      match (an, a.Analysis.kind) with
      | "depthk", _ -> logic [ ("k", "1") ] R.table4_benchmarks
      | _, Analysis.Logic_program ->
          logic [] R.logic_benchmarks
          @
          if an = "groundness" then
            List.map
              (fun (b : R.stress_bench) -> cell [ ("mode", "def") ] (b.R.name, b.R.source))
              R.stress_benchmarks
          else []
      | _, Analysis.Fp_program ->
          List.map (fun (b : R.fp_bench) -> cell [] (b.R.name, b.R.source)) R.fp_benchmarks
      | _, Analysis.Cfg_program ->
          List.map (fun (b : R.cfg_bench) -> cell [] (b.R.name, b.R.source)) R.cfg_benchmarks)
    (Analysis.all ())

(* The two strictness cells without supplementary tabling that finish
   in about a second here (ROADMAP item 3's retention shows in their
   peak RSS); the other nosupp cells pass 15 s and 1.6 GB. *)
let nosupp () =
  List.filter_map
    (fun name ->
      Option.map
        (fun (b : R.fp_bench) ->
          { analysis = "strictness"; name; config = [ ("supplementary", "false") ];
            source = b.R.source; tag = "strictness-nosupp" })
        (R.find_fp name))
    [ "eu"; "quicksort" ]

let engine_cells () = matrix () @ nosupp ()

(* The light cells: every matrix cell except the five that take more
   than 0.1 s (strictness pcprove/nq/event, depthk read, dataflow
   ladder24).  Serving and batch requests are drawn from these, so
   analysis is a small part of each request. *)
let heavy =
  [ ("strictness", "pcprove"); ("strictness", "nq"); ("strictness", "event");
    ("depthk", "read"); ("dataflow", "ladder24") ]

let light_cells () =
  List.filter (fun c -> not (List.mem (c.analysis, c.name) heavy)) (matrix ())

(* --- seeded randomness ----------------------------------------------------- *)

(* A stream per (seed, purpose), so adding draws to one workload never
   shifts another's inputs. *)
let rng ~seed purpose = Random.State.make [| seed; Hashtbl.hash purpose |]

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* [n] seeded edits of a cell's source (one, except when a small
   program has run out of distinct single edits).  Logic and functional
   programs go through Incr.Mutate; the CFG format has no mutator, so a
   CFG source gets a seed-numbered comment line (the analysis ignores
   it, but it makes the bytes, and so the daemon's cache key, new). *)
let edit ~seed ~n (c : cell) =
  match (find_analysis c.analysis).Analysis.kind with
  | Analysis.Logic_program -> Incr.Mutate.(apply_n ~seed ~n mutate_pl c.source)
  | Analysis.Fp_program -> Incr.Mutate.(apply_n ~seed ~n mutate_eq c.source)
  | Analysis.Cfg_program -> Some (Printf.sprintf "# edit %d\n%s" seed c.source)

(* A generator of edited sources of [c] that never repeats one: [next ()]
   returns an edited source that it has not returned before, nor [c]'s
   own source.  After eight collisions in a row the edit grows by one
   more mutation, so the stream cannot run dry. *)
let unique_edits ~seed (c : cell) =
  let st = rng ~seed "edits" in
  let seen = Hashtbl.create 256 in
  Hashtbl.replace seen c.source ();
  let rec next tries =
    let s = Random.State.bits st in
    match edit ~seed:s ~n:(1 + (tries / 8)) c with
    | Some src when not (Hashtbl.mem seen src) ->
        Hashtbl.replace seen src ();
        src
    | _ -> next (tries + 1)
  in
  fun () -> next 0
