(* Order statistics over samples.  Medians come from the bench-run
   store's implementation (Prax.Benchrun.stats_of), not a second one.
   Benchrun has no upper percentile, so the 90th percentile is read off
   the sorted samples here, by nearest rank.  It is a p90 only when at
   least ten samples lie beyond it, which takes [tail_samples] samples;
   with fewer, [p90] still gives the nearest-rank value, and
   Outcome.set_p90 fails the run. *)

let median = function [] -> 0. | l -> (Prax.Benchrun.stats_of l).Prax.Benchrun.median

let tail_samples = 100

let p90 = function
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      a.(max 0 (((9 * n) + 9) / 10 - 1))

let sum = List.fold_left ( +. ) 0.

let ratio num den = if den = 0. then 0. else num /. den
