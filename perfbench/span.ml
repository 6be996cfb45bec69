(* Span recorder and per-layer ledger.

   A span is one timed call at a layer boundary that the benchmark
   crosses: name, layer, start, end, the span that caused it, and the op
   (request, cell or job) it belongs to.  Spans stay in memory while the
   workload runs and are written out once, when it ends.  Spans whose
   work happened in another process (a forked worker, a sweep child) are
   added afterwards from the times that process reported.

   Recording is off unless [enabled] is set, so untraced runs pay one
   branch per call.  The recorder is shared by the client threads of
   edit-session, hence the lock. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root *)
  op : int;  (** op id; 0 for spans that belong to no single op *)
  name : string;
  layer : string;
  t0 : float;  (** monotonic seconds ([Prax.Analysis.now]) *)
  t1 : float;
}

let enabled = ref false
let lock = Mutex.create ()
let spans : span list ref = ref []
let next_id = ref 0

(* seconds spent inside the recorder itself *)
let cost = ref 0.

let now = Prax.Analysis.now

let fresh () =
  Mutex.lock lock;
  incr next_id;
  let id = !next_id in
  Mutex.unlock lock;
  id

let push s =
  Mutex.lock lock;
  spans := s :: !spans;
  Mutex.unlock lock

(* Record a finished span; returns its id (0 when tracing is off). *)
let add ?(parent = 0) ?(op = 0) ~layer name t0 t1 =
  if not !enabled then 0
  else begin
    let c0 = now () in
    let id = fresh () in
    push { id; parent; op; name; layer; t0; t1 };
    cost := !cost +. (now () -. c0);
    id
  end

(* [with_span ~layer name f] times [f id], where [id] is the new span's
   id for children to name as their parent. *)
let with_span ?(parent = 0) ?(op = 0) ~layer name f =
  if not !enabled then f 0
  else begin
    let id = fresh () in
    let t0 = now () in
    let finish () =
      let c0 = now () in
      push { id; parent; op; name; layer; t0; t1 = c0 };
      cost := !cost +. (now () -. c0)
    in
    match f id with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* Add the three analysis phases of a report as children of [parent],
   laid end to end and ending at [t_end] (a worker's phases are known
   only as durations). *)
let add_phases ~parent ~op ~t_end (p : Prax.Analysis.phases) =
  let c = p.Prax.Analysis.collection and e = p.Prax.Analysis.analysis in
  let t_c = t_end -. c in
  let t_e = t_c -. e in
  let t_p = t_e -. p.Prax.Analysis.preproc in
  ignore (add ~parent ~op ~layer:"preprocess" "preprocess" t_p t_e);
  ignore (add ~parent ~op ~layer:"tabling" "evaluate" t_e t_c);
  ignore (add ~parent ~op ~layer:"analysis" "collect" t_c t_end)

let all () = List.rev !spans

(* --- self time ------------------------------------------------------------ *)

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) when a <= cb -> (acc, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (acc +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

let children_of spans =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent <> 0 then Hashtbl.add tbl s.parent s)
    spans;
  fun id -> Hashtbl.find_all tbl id

(* A span's self time: its duration minus the part of it that its
   children cover. *)
let self_times spans =
  let kids = children_of spans in
  List.map
    (fun s ->
      let cs = List.map (fun c -> (c.t0, c.t1)) (kids s.id) in
      (s, s.t1 -. s.t0 -. covered ~lo:s.t0 ~hi:s.t1 cs))
    spans

(* Self seconds summed per layer, sorted by layer name. *)
let self_by_layer spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let v = Option.value ~default:0. (Hashtbl.find_opt tbl s.layer) in
      Hashtbl.replace tbl s.layer (v +. self))
    (self_times spans);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

(* Op roots: op spans whose parent, if any, belongs to no op or to
   another one. *)
let op_roots spans =
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  List.filter
    (fun s ->
      s.op <> 0
      &&
      match Hashtbl.find_opt by_id s.parent with
      | None -> true
      | Some p -> p.op <> s.op)
    spans

(* The layers must sum: for every op root, the self times of its span
   tree must add up to the root's duration.  They do exactly when no
   child overlaps a sibling or sticks out of its parent, so each op's
   gap is the time its ledger double- or mis-counts, in seconds.
   Returns (root, its self time, its gap) per op. *)
let op_gaps spans =
  let kids = children_of spans in
  let selfs = Hashtbl.create 64 in
  List.iter (fun (s, self) -> Hashtbl.replace selfs s.id self) (self_times spans);
  let rec tree_self s =
    Hashtbl.find selfs s.id
    +. List.fold_left (fun acc c -> acc +. tree_self c) 0. (kids s.id)
  in
  List.map
    (fun s -> (s, Hashtbl.find selfs s.id, Float.abs (s.t1 -. s.t0 -. tree_self s)))
    (op_roots spans)

(* --- dump ----------------------------------------------------------------- *)

let to_json spans =
  let open Prax.Metrics in
  Arr
    (List.map
       (fun s ->
         Obj
           [
             ("id", Int s.id);
             ("parent", Int s.parent);
             ("op", Int s.op);
             ("name", Str s.name);
             ("layer", Str s.layer);
             ("start", Float s.t0);
             ("end", Float s.t1);
           ])
       spans)
