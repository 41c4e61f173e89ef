(* Hot-path suite: the per-access kernels' allocation contracts and
   the equivalences that make them safe to optimise.

   Allocation budgets are read from [Gc.minor_words] deltas over 100 k
   calls, so a budget of 0 words per operation fails on any
   per-operation box or closure.  The generator's output stream is
   pinned against a fixture of 1000 [bits64]/[float]/[int] draws, and
   the [Intmap]-backed trace analyzer is checked against a plain
   [Hashtbl] reference on traces with negative addresses and runs
   inside one block. *)

module Rng = Nmcache_numerics.Rng
module Intmap = Nmcache_cachesim.Intmap
module Trace = Nmcache_cachesim.Trace
module Lm = Nmcache_numerics.Lm

let calls = 100_000

(* minor words per call of [body i], i = 0 .. calls - 1 *)
let words_per_call body =
  let w0 = Gc.minor_words () in
  for i = 0 to calls - 1 do
    body i
  done;
  (Gc.minor_words () -. w0) /. float_of_int calls

let check_budget name ~budget words =
  Printf.printf "%s: %.4f minor words per call (budget %.2f)\n" name words budget;
  if words > budget then
    Alcotest.failf "%s: %.3f minor words per call, budget %.3f" name words budget

(* budgets of "0 words" allow for the measurement itself only *)
let zero = 0.01

(* --- allocation budgets ------------------------------------------------- *)

let test_intmap_budget () =
  let m = Intmap.create ~initial_capacity:(4 * calls) () in
  for i = 0 to (calls / 2) - 1 do
    Intmap.replace m (i * 64) i
  done;
  (* half the lookups hit, half miss *)
  check_budget "Intmap.find" ~budget:zero
    (words_per_call (fun i -> ignore (Intmap.find m (i * 64) ~default:(-1))));
  check_budget "Intmap.mem" ~budget:zero
    (words_per_call (fun i -> ignore (Intmap.mem m (i * 32))));
  check_budget "Intmap.replace" ~budget:zero
    (words_per_call (fun i -> Intmap.replace m (i * 64) (i + 1)));
  (* sized up front, so inserting the new half never grows the map *)
  check_budget "Intmap.add_if_absent" ~budget:zero
    (words_per_call (fun i -> ignore (Intmap.add_if_absent m ((i * 64) + 1))));
  Alcotest.(check int) "every key present" (2 * calls) (Intmap.length m)

let test_rng_budget () =
  let r = Rng.create ~seed:11L in
  let sink = ref 0.0 and isink = ref 0 in
  check_budget "Rng.float" ~budget:3.0 (words_per_call (fun _ -> sink := Rng.float r));
  check_budget "Rng.int" ~budget:3.0
    (words_per_call (fun i -> isink := Rng.int r ~bound:(1 + (i land 1023))));
  ignore (Sys.opaque_identity (!sink, !isink))

let test_analyzer_budget () =
  let r = Rng.create ~seed:5L in
  let entries =
    Array.init calls (fun _ ->
        { Trace.addr = 64 * Rng.int r ~bound:20_000; write = Rng.bool r })
  in
  let a = Trace.analyzer () in
  (* the first pass grows the block set; the second must not allocate *)
  Array.iter (Trace.feed_analyzer a) entries;
  check_budget "Trace.feed_analyzer" ~budget:zero
    (words_per_call (fun i -> Trace.feed_analyzer a entries.(i)))

(* Minor words per Levenberg–Marquardt iteration, read at the solver's
   per-iteration [check] hook.  The two-exponential model is a batch
   model that allocates nothing itself, and fitting it to a
   one-exponential curve with a wobble is ill-conditioned enough to
   take many iterations. *)
let lm_words_per_iteration n =
  let x = Array.init n (fun i -> float_of_int i /. float_of_int n) in
  let xs = Array.map (fun v -> [| v |]) x in
  let ys =
    Array.map (fun v -> 2.0 +. (3.0 *. Float.exp (-4.0 *. v)) +. (1e-3 *. Float.sin (40.0 *. v))) x
  in
  let f theta _ out =
    let a = theta.(0) and b = theta.(1) and c = theta.(2) and d = theta.(3) and e = theta.(4) in
    for i = 0 to n - 1 do
      out.(i) <- a +. (b *. Float.exp (c *. x.(i))) +. (d *. Float.exp (e *. x.(i)))
    done
  in
  let marks = [| 0.0; 0.0 |] and calls = ref 0 in
  let check () =
    let w = Gc.minor_words () in
    if !calls = 0 then marks.(0) <- w;
    marks.(1) <- w;
    incr calls
  in
  let r = Lm.fit ~tol:0.0 ~check ~f ~xs ~ys ~init:[| 0.0; 1.0; -1.0; 1.0; -2.0 |] () in
  if r.Lm.iterations < 10 then Alcotest.failf "n=%d: only %d iterations" n r.Lm.iterations;
  Printf.printf "n=%d: %d iterations\n" n r.Lm.iterations;
  (marks.(1) -. marks.(0)) /. float_of_int (!calls - 1)

let test_lm_budget () =
  let small = lm_words_per_iteration 35 and large = lm_words_per_iteration 350 in
  check_budget "Lm iteration, n=35" ~budget:zero small;
  check_budget "Lm iteration, n=350" ~budget:zero large

(* --- pinned generator stream ------------------------------------------- *)

(* fixtures/rng_pinned.txt: line i holds draw i of three generators —
   [bits64] of seed 2026 (hex), [float] of seed 7 ([%h]) and [int] of
   seed -99 with bound [bounds.(i mod 10)]; the bounds include one
   (3 lsl 60) that rejects about a quarter of the raw draws *)
let bounds = [| 1; 2; 3; 7; 64; 1000; 1 lsl 20; 1 lsl 40; 3 lsl 60; max_int |]

let test_rng_pinned () =
  let ic = open_in "fixtures/rng_pinned.txt" in
  let lines =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> List.rev (In_channel.fold_lines (fun acc l -> l :: acc) [] ic))
  in
  Alcotest.(check int) "1000 pinned draws" 1000 (List.length lines);
  let a = Rng.create ~seed:2026L and b = Rng.create ~seed:7L and c = Rng.create ~seed:(-99L) in
  List.iteri
    (fun i line ->
      match String.split_on_char ' ' line with
      | [ x; f; n ] ->
        let got_x = Printf.sprintf "%016Lx" (Rng.bits64 a) in
        let got_f = Rng.float b in
        let got_n = Rng.int c ~bound:bounds.(i mod Array.length bounds) in
        if got_x <> x || got_f <> float_of_string f || got_n <> int_of_string n then
          Alcotest.failf "draw %d: got %s %h %d, pinned %s" i got_x got_f got_n line
      | _ -> Alcotest.failf "fixture line %d malformed: %S" i line)
    lines

(* --- analyzer equivalence ----------------------------------------------- *)

(* the analyzer as first written: a polymorphic Hashtbl of [addr / 64] *)
let reference_stats (entries : Trace.entry list) =
  let blocks = Hashtbl.create 64 in
  let accesses = ref 0 and writes = ref 0 and sequential = ref 0 and prev = ref min_int in
  List.iter
    (fun (e : Trace.entry) ->
      incr accesses;
      if e.Trace.write then incr writes;
      Hashtbl.replace blocks (e.Trace.addr / 64) ();
      if !prev <> min_int && e.Trace.addr >= !prev && e.Trace.addr <= !prev + 64 then
        incr sequential;
      prev := e.Trace.addr)
    entries;
  if !accesses = 0 then Trace.zero_stats
  else
    {
      Trace.accesses = !accesses;
      writes = !writes;
      distinct_blocks = Hashtbl.length blocks;
      footprint_bytes = 64 * Hashtbl.length blocks;
      sequential_fraction = float_of_int !sequential /. float_of_int !accesses;
    }

(* a trace is a list of runs: [len] accesses within one 64-byte block
   (or straddling into the next) starting at a base that is small and
   signed, large and signed, or an extreme int *)
let trace_gen =
  let open QCheck.Gen in
  let base =
    frequency
      [
        (6, int_range (-4096) 4096);
        (3, map (fun k -> k * 64) (int_range (-1 lsl 40) (1 lsl 40)));
        (1, oneofl [ min_int; min_int + 63; -64; -63; -1; 0; 63; max_int - 63; max_int ]);
      ]
  in
  let run =
    map3
      (fun b len (step, write) ->
        List.init len (fun k ->
            { Trace.addr = b + (if b > max_int - 64 then 0 else k * step); write }))
      base (int_range 1 6) (pair (int_range 0 16) bool)
  in
  map List.concat (list_size (int_range 0 60) run)

let print_trace entries =
  String.concat " "
    (List.map
       (fun (e : Trace.entry) -> Printf.sprintf "%d%s" e.Trace.addr (if e.Trace.write then "w" else ""))
       entries)

let analyzer_matches_reference =
  QCheck.Test.make ~name:"analyzer equals the Hashtbl reference" ~count:500
    (QCheck.make ~print:print_trace trace_gen)
    (fun entries ->
      let a = Trace.analyzer () in
      List.iter (Trace.feed_analyzer a) entries;
      Trace.analyzer_stats a = reference_stats entries)

let suite =
  [
    Alcotest.test_case "Intmap find/mem/replace/add_if_absent allocate 0 words" `Quick
      test_intmap_budget;
    Alcotest.test_case "Rng.float and Rng.int allocate <= 3 words" `Quick test_rng_budget;
    Alcotest.test_case "Trace.feed_analyzer allocates 0 words" `Quick test_analyzer_budget;
    Alcotest.test_case "Rng stream equals 1000 pinned draws" `Quick test_rng_pinned;
    Generators.to_alcotest analyzer_matches_reference;
    Alcotest.test_case "Lm iterations allocate 0 words at n=35 and n=350" `Quick test_lm_budget;
  ]
