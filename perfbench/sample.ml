(* Order statistics over raw samples.  Percentiles are nearest-rank on
   the sorted samples, never bucket estimates. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Sample.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* index of the nearest-rank [p]-th percentile in [n] sorted samples *)
let rank ~n p = max 0 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1)

let ladder = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

type tail = {
  pct : float;  (** the percentile reported *)
  value : float;
  count : int;  (** samples it was taken from *)
}

(* The tail: the highest percentile, no higher than [at_most], that has
   at least ten samples beyond it, or the median when none has.  Callers
   fix [at_most] per sample class so every run of a workload reports the
   same percentile. *)
let tail ~at_most xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Sample.tail: no samples";
  let ok p = p <= at_most && n - 1 - rank ~n p >= 10 in
  let pct = match List.find_opt ok ladder with Some p -> p | None -> 50.0 in
  { pct; value = a.(rank ~n pct); count = n }

let sum xs = List.fold_left ( +. ) 0.0 xs
