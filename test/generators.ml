(* Shared QCheck substrate for the property suites.

   One pinned seed, printed at startup and overridable with
   QCHECK_SEED, so every property run is reproducible from its log
   alone — qcheck-alcotest would otherwise self-init a fresh random
   seed per run, which is how the geometry monotonicity suite once went
   flaky.  Every suite funnels its QCheck tests through {!to_alcotest}
   here; the common generators (knobs, design grids, workloads, cache
   geometries, traces) live alongside so the suites share one
   vocabulary of inputs. *)

module Tech = Nmcache_device.Tech
module Grid = Nmcache_opt.Grid
module Registry = Nmcache_workload.Registry

let default_seed = 240214

let seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | None | Some "" -> default_seed
  | Some s -> (
    match int_of_string_opt s with
    | Some n -> n
    | None ->
      Printf.eprintf "generators: ignoring non-integer QCHECK_SEED %S\n%!" s;
      default_seed)

let () = Printf.printf "qcheck seed: %d (override with QCHECK_SEED)\n%!" seed

let to_alcotest test =
  (* a fresh state per test, all from the one seed: results don't
     depend on suite order *)
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) test

let tech = Tech.bptm65

(* --- knobs ----------------------------------------------------------- *)

let print_knob (v, t) = Printf.sprintf "(%.3fV,%.2fA)" v t

let knob_arb =
  (* the full legal (Vth, Tox-angstrom) box, boundaries included *)
  QCheck.make ~print:print_knob
    QCheck.Gen.(pair (float_range tech.Tech.vth_min tech.Tech.vth_max) (float_range 10.0 14.0))

let interior_knob_arb =
  (* headroom for the +0.02 V / +0.2 A nudges monotonicity properties
     apply without leaving the legal box *)
  QCheck.make ~print:print_knob QCheck.Gen.(pair (float_range 0.2 0.48) (float_range 10.0 13.8))

(* --- design grids ---------------------------------------------------- *)

let grid_arb =
  (* random downsamples of the paper's full 13 x 9 grid — small enough
     to search exhaustively, always containing the axis endpoints *)
  let full = Grid.make tech in
  QCheck.make
    ~print:(fun (g : Grid.t) ->
      Printf.sprintf "%dx%d grid" (Array.length g.Grid.vths) (Array.length g.Grid.toxs))
    QCheck.Gen.(
      map
        (fun (vths, toxs) -> Grid.subsample full ~vths ~toxs)
        (pair (int_range 2 5) (int_range 2 4)))

(* --- workloads ------------------------------------------------------- *)

let workload_arb = QCheck.make ~print:Fun.id (QCheck.Gen.oneofl Registry.names)

(* --- cache geometries ------------------------------------------------ *)

let geometry_arb =
  (* (size_bytes, assoc, block_bytes), always valid for Cache.create:
     power-of-two associativity (PLRU-safe) and at least one set *)
  QCheck.make
    ~print:(fun (size, assoc, block) -> Printf.sprintf "%dB/%d-way/%dB" size assoc block)
    QCheck.Gen.(
      map
        (fun (assoc_log, sets_log, block_log) ->
          let assoc = 1 lsl assoc_log and block = 1 lsl block_log in
          (assoc * (1 lsl sets_log) * block, assoc, block))
        (triple (int_range 0 4) (int_range 0 6) (int_range 4 7)))

(* --- traces and misc cases ------------------------------------------- *)

let trace_seed_arb = QCheck.(int_bound 10_000)
(** seeds for short synthetic traces (reference-model comparisons) *)

let mattson_case_arb = QCheck.(pair (int_bound 100_000) (int_range 1 6))
(** (trace seed, log2 capacity) for stack-distance cross-checks *)

let linsys_seed_arb = QCheck.(pair (int_bound 1000) small_int)
(** (system seed, _) for random well-conditioned linear systems *)
