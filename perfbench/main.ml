(* perfbench: the repository benchmark.

     main.exe --workload trace-replay|reproduce|serve-mix --seed N
              --seconds S --trace 0|1
     main.exe --smoke
     main.exe --catalog

   Run from the root of a built checkout: serve-mix starts
   _build/default/bin/ppcache.exe.

   Prints one report line ("perfbench report: {...}") and, last, the
   result object {"correct", "attempted", "failed", "metrics"}: the
   end-to-end metrics with --trace 0, the per-layer metrics with
   --trace 1.  Exit 0 when the run completed (a failed correctness check
   still exits 0 and shows as correct:false); exit 2 on bad usage. *)

module Json = Nmcache_engine.Json

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 | --smoke | --catalog";
  exit 2

let ppcache = "_build/default/bin/ppcache.exe"

let run_workload name =
  match name with
  | "trace-replay" -> Trace_replay.run
  | "reproduce" -> Reproduce.run
  | "serve-mix" -> Serve_mix.run ~ppcache
  | _ -> usage ()

(* -- report settings ---------------------------------------------------- *)

let commit () =
  let from_git =
    if Sys.file_exists ".git" then
      try
        let ic = Unix.open_process_args_in "git" [| "git"; "rev-parse"; "HEAD" |] in
        let line = In_channel.input_line ic in
        match (Unix.close_process_in ic, line) with
        | Unix.WEXITED 0, Some l -> Some (String.trim l)
        | _ -> None
      with Unix.Unix_error _ -> None
    else None
  in
  Option.value from_git ~default:"unknown"

(* Digest of the program's sources (lib/ and bin/), so two reports of one
   tree match even where no git metadata exists. *)
let source_digest () =
  let rec files dir =
    if not (Sys.file_exists dir) then []
    else
      Sys.readdir dir |> Array.to_list |> List.sort compare
      |> List.concat_map (fun f ->
             let p = Filename.concat dir f in
             if Sys.is_directory p then files p
             else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" || f = "dune"
             then [ p ]
             else [])
  in
  let all = files "lib" @ files "bin" in
  Digest.to_hex (Digest.string (String.concat "" (List.map (fun p -> p ^ Digest.file p) all)))

(* Bumped whenever a change to the benchmark changes what a metric
   measures: reports of different versions are not comparable. *)
let version = 1

let settings ~name (p : Out.params) =
  [
    ("benchmark_version", Json.Int version);
    ("workload", Json.String name);
    ("why", Json.String (List.assoc name Catalog.workloads));
    ("seed", Json.Int p.Out.seed);
    ("seconds", Json.Float p.Out.seconds);
    ("trace", Json.Bool p.Out.trace);
    ("smoke", Json.Bool p.Out.smoke);
    ("nproc", Json.Int (Domain.recommended_domain_count ()));
    ("commit", Json.String (commit ()));
    ("source_digest", Json.String (source_digest ()));
    ("ocaml", Json.String Sys.ocaml_version);
  ]

(* -- one run --------------------------------------------------------------- *)

let execute ~name (p : Out.params) =
  let ledger = Out.ledger () in
  let r = (run_workload name) p ledger in
  (r, ledger)

let print_result ~name (p : Out.params) (r : Out.result) (ledger : Out.ledger) =
  let catalog =
    if p.Out.trace then List.map (fun (n, u, _, _) -> (n, u)) Catalog.per_layer
    else List.map (fun (n, u, _) -> (n, u)) Catalog.end_to_end
  in
  let values = if p.Out.trace then r.Out.layers else r.Out.e2e in
  (* a per-layer metric this workload does not exercise reads 0 *)
  let metrics =
    List.map
      (fun (n, u) ->
        let v = Option.value (List.assoc_opt n values) ~default:0.0 in
        (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
      catalog
  in
  let layer_map =
    Json.Obj
      (List.map
         (fun (n, _, _, moves) ->
           let exercised = Json.Bool (List.mem_assoc n values) in
           (n, Json.Obj [ ("moves", Json.String moves); ("exercised", exercised) ]))
         Catalog.per_layer)
  in
  let report =
    Json.Obj
      ([ ("settings", Json.Obj (settings ~name p @ r.Out.detail)) ]
      @ (if p.Out.trace then [ ("layers", layer_map) ] else [])
      @ [ ("failures", Json.List (List.rev_map (fun s -> Json.String s) ledger.Out.notes)) ])
  in
  print_endline ("perfbench report: " ^ Json.to_string report);
  let correct = ledger.Out.failed = 0 && ledger.Out.attempted > 0 in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int (max 1 ledger.Out.attempted));
            ("failed", Json.Int ledger.Out.failed);
            ("metrics", Json.Obj metrics);
          ]))

(* The catalogue as JSON, for run.py to hold BENCHMARK.json against. *)
let print_catalog () =
  let obj fields = Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) fields) in
  let metric n u b = obj [ ("name", n); ("unit", u); ("better", b) ] in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ( "workloads",
              Json.List
                (List.map (fun (n, w) -> obj [ ("name", n); ("why", w) ]) Catalog.workloads) );
            ("end_to_end", Json.List (List.map (fun (n, u, b) -> metric n u b) Catalog.end_to_end));
            ( "per_layer",
              Json.List (List.map (fun (n, u, b, _) -> metric n u b) Catalog.per_layer) );
          ]));
  exit 0

(* -- smoke mode ------------------------------------------------------------ *)

(* Every workload at a tiny size, twice: once as is, traced, where no
   check may fire, and once with each check fed a wrong expected value,
   where every workload must book failures.  Exit 0 only if both hold. *)
let smoke () =
  let ok = ref true in
  List.iter
    (fun (name, _) ->
      List.iter
        (fun tamper ->
          let p = { Out.seed = 1; seconds = 0.0; trace = not tamper; smoke = true; tamper } in
          let _, ledger = execute ~name p in
          let good =
            if tamper then ledger.Out.failed > 0
            else ledger.Out.failed = 0 && ledger.Out.attempted > 0
          in
          Printf.printf "smoke %-12s %-8s attempted %d failed %d: %s\n%!" name
            (if tamper then "tampered" else "clean")
            ledger.Out.attempted ledger.Out.failed
            (if good then "ok" else "WRONG");
          if not good then ok := false)
        [ false; true ])
    Catalog.workloads;
  exit (if !ok then 0 else 1)

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10.0 and trace = ref 0 in
  let smoke_mode = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Int (fun s -> seed := Some s), "N input seed");
      ("--seconds", Arg.Set_float seconds, "S minimum length of the timed region");
      ("--trace", Arg.Set_int trace, "0|1 traced run (per-layer metrics)");
      ("--catalog", Arg.Unit print_catalog, " print the metric catalogue as JSON");
      ("--smoke", Arg.Set smoke_mode, " self-test: tiny workloads; tampered checks must fire");
    ]
    (fun _ -> usage ())
    "perfbench";
  if !smoke_mode then smoke ();
  let known = List.mem_assoc !workload Catalog.workloads in
  if (not known) || !trace < 0 || !trace > 1 || !seconds < 0.0 then usage ();
  let seed = match !seed with Some s -> s | None -> usage () in
  let p = { Out.seed; seconds = !seconds; trace = !trace = 1; smoke = false; tamper = false } in
  let r, ledger = execute ~name:!workload p in
  print_result ~name:!workload p r ledger
