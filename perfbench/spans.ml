(* Benchmark-owned spans: wall-clock intervals the benchmark records
   around its own calls into the program's public functions.  They are
   kept in memory and reduced when the run ends.  Nothing here reads the
   program's internal timing registries, so refactoring those never
   changes what the benchmark reports. *)

type span = {
  id : int;
  parent : int;  (** 0 for a top-level span *)
  name : string;
  start : float;
  stop : float;
}

(* seconds on the monotonic clock, nanosecond resolution *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let enabled = ref false
let lock = Mutex.create ()
let recorded : span list ref = ref []
let next_id = Atomic.make 1

(* the innermost open span of the calling domain *)
let current = Domain.DLS.new_key (fun () -> 0)

let with_span name f =
  if not !enabled then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = Domain.DLS.get current in
    Domain.DLS.set current id;
    let start = now () in
    Fun.protect f ~finally:(fun () ->
        let stop = now () in
        Domain.DLS.set current parent;
        Mutex.protect lock (fun () ->
            recorded := { id; parent; name; start; stop } :: !recorded))
  end

(* [f ()] under a span named [name]; returns its result and duration
   (measured whether or not spans are being recorded). *)
let timed name f =
  let t0 = now () in
  let r = with_span name f in
  (r, now () -. t0)

let reset () = Mutex.protect lock (fun () -> recorded := [])
let all () = Mutex.protect lock (fun () -> List.rev !recorded)

(* Self time per span name: each span's duration minus the time its
   direct children cover.  Returns [(name, (self_s, count))]. *)
let self_times spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        let prev = Option.value (Hashtbl.find_opt child s.parent) ~default:0.0 in
        Hashtbl.replace child s.parent (prev +. (s.stop -. s.start)))
    spans;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let covered = Option.value (Hashtbl.find_opt child s.id) ~default:0.0 in
      let self = s.stop -. s.start -. covered in
      let t, c = Option.value (Hashtbl.find_opt acc s.name) ~default:(0.0, 0) in
      Hashtbl.replace acc s.name (t +. self, c + 1))
    spans;
  fun name -> Option.value (Hashtbl.find_opt acc name) ~default:(0.0, 0)

(* Length of the union of the spans' intervals: how much of a window
   some span covered, with overlapping (parallel) spans counted once. *)
let covered spans =
  let iv = List.sort compare (List.map (fun s -> (s.start, s.stop)) spans) in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) iv
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)
