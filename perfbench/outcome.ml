(* What one workload run hands back: op counts, failure reasons, the
   negative control's verdict, and named metric values. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable reasons : string list;  (** newest first *)
  mutable control_fired : bool;
  metrics : (string, float) Hashtbl.t;
}

let create () =
  { attempted = 0; failed = 0; reasons = []; control_fired = false;
    metrics = Hashtbl.create 64 }

let set t name v = Hashtbl.replace t.metrics name v
let get t name = Hashtbl.find_opt t.metrics name

(* One attempted op; it failed when [problems] is non-empty. *)
let op t problems =
  t.attempted <- t.attempted + 1;
  if problems <> [] then begin
    t.failed <- t.failed + 1;
    t.reasons <- List.rev_append problems t.reasons
  end

(* A failure that belongs to no single op (a daemon hygiene breach):
   it counts as one more attempted and failed op. *)
let breach t reason = op t [ reason ]

(* A p90 metric: the 90th percentile of [samples], which needs
   [Order.tail_samples] samples.  A run with fewer is a breach, so a
   p90 is never reported from too few samples. *)
let set_p90 t name samples =
  let n = List.length samples in
  if n < Order.tail_samples then
    breach t (Printf.sprintf "%s: %d samples, a p90 needs %d" name n Order.tail_samples);
  set t name (Order.p90 samples)

(* The negative control: [detects ()] runs the workload's own output
   check on a deliberately corrupted copy of a real output and must
   report the mismatch.  A check that cannot fire makes the run
   incorrect. *)
let control t detects = t.control_fired <- detects ()

(* A copy of [s] with one byte changed. *)
let corrupt s =
  if s = "" then "x"
  else
    let mid = String.length s / 2 in
    String.mapi (fun i c -> if i = mid then Char.chr ((Char.code c + 1) land 255) else c) s
