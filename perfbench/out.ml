(* What a workload run hands back to [Main], the correctness ledger every
   workload books its operations in, and the helpers the workloads share. *)

module Json = Nmcache_engine.Json

(* -- correctness ledger ---------------------------------------------- *)

(* Every operation a workload performs is booked as attempted; one whose
   output does not match its expected value is booked as failed too, and
   the first mismatches are described on stderr and in the report. *)
type ledger = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let ledger () = { attempted = 0; failed = 0; notes = [] }
let attempt ?(ops = 1) l = l.attempted <- l.attempted + ops

let fail ?(ops = 1) l fmt =
  Printf.ksprintf
    (fun msg ->
      l.failed <- l.failed + ops;
      if List.length l.notes < 20 then begin
        l.notes <- msg :: l.notes;
        Printf.eprintf "perfbench: check failed: %s\n%!" msg
      end)
    fmt

(* -- a workload's result --------------------------------------------- *)

type result = {
  e2e : (string * float) list;  (** end-to-end metrics (untraced timing) *)
  layers : (string * float) list;  (** per-layer metrics (traced run only) *)
  detail : (string * Json.t) list;  (** everything else the report states *)
}

(* -- process helpers -------------------------------------------------- *)

(* Peak resident set ("VmHWM") of a live process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  In_channel.with_open_text path (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM in " ^ path)
        | Some line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        | Some _ -> scan ()
      in
      scan ())

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

(* A fresh scratch directory inside the working directory (the checkout
   the benchmark runs in): never outside it. *)
let scratch_dir name =
  let root = Filename.concat (Sys.getcwd ()) ".perfbench" in
  if not (Sys.file_exists root) then Unix.mkdir root 0o755;
  let dir = Filename.concat root (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  dir

(* -- run parameters ---------------------------------------------------- *)

type params = {
  seed : int;
  seconds : float;  (** minimum length of the timed region *)
  trace : bool;  (** traced run: report per-layer metrics *)
  smoke : bool;  (** tiny inputs, for the benchmark's own self-test *)
  tamper : bool;  (** feed each check a wrong expected value *)
}

let timed f =
  let t0 = Spans.now () in
  let r = f () in
  (r, Spans.now () -. t0)

(* Run [round] until [seconds] have passed and at least [min_rounds]
   rounds are done, but start no round after [3 * seconds], so a run on a
   machine slowed down by other load still ends in time; returns the
   rounds' results in order. *)
let rounds ~seconds ?(min_rounds = 1) round =
  let t0 = Spans.now () in
  let rec go i acc =
    let elapsed = Spans.now () -. t0 in
    if i >= 1 && (elapsed >= 3.0 *. seconds || (i >= min_rounds && elapsed >= seconds)) then
      List.rev acc
    else go (i + 1) (round i :: acc)
  in
  go 0 []

(* The end-to-end metrics from a workload's raw samples, all in
   seconds, plus the report entries that go with them: the round walls
   and which percentile each tail is.  [warm_cap]/[cold_cap] cap the
   tail percentile so every run of a workload reports the same one. *)
let end_to_end ~setups ~walls ~peak_mb ~warm ~warm_per_s ~warm_cap ~cold ~cold_cap =
  let wt = Sample.tail ~at_most:warm_cap warm and ct = Sample.tail ~at_most:cold_cap cold in
  let tail (t : Sample.tail) =
    Json.Obj [ ("pct", Json.Float t.Sample.pct); ("samples", Json.Int t.Sample.count) ]
  in
  ( [
      ("setup_s", Sample.median setups);
      ("wall_s", Sample.median walls);
      ("peak_mem_mb", peak_mb);
      ("warm_p50_us", 1e6 *. Sample.median warm);
      ("warm_tail_us", 1e6 *. wt.Sample.value);
      ("warm_per_s", warm_per_s);
      ("cold_p50_ms", 1e3 *. Sample.median cold);
      ("cold_tail_ms", 1e3 *. ct.Sample.value);
    ],
    [
      ("setups_s", Json.List (List.map (fun x -> Json.Float x) setups));
      ("round_walls_s", Json.List (List.map (fun x -> Json.Float x) walls));
      ("tails", Json.Obj [ ("warm", tail wt); ("cold", tail ct) ]);
    ] )
