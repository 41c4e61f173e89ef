(* Durable journal of completed sweep slots: a {!Journal} under the
   "PPCKPT01" magic whose values are slot results marshalled with
   [Marshal.to_string v []].

   Typing discipline: the journal stores marshalled bytes, so a lookup
   must be deserialised at the same type that was stored.  Keys are
   therefore namespaced by {!Sweep} as "<task name>\x00<slot key>" —
   one task, one result type — and slot keys must encode every input
   the result depends on (context fingerprints included).  The CLI
   arms one journal process-wide ({!set_active}); sweeps consult it on
   every keyed slot. *)

type t = Journal.t

let magic = "PPCKPT01"
let journal_name = "journal.ppck"

let open_ ~dir ~resume =
  let t = Journal.open_ ~dir ~name:journal_name ~magics:[ magic ] ~resume in
  let replayed = Journal.replayed t in
  if replayed > 0 then begin
    Metrics.incr ~by:replayed "checkpoint.replayed";
    if Events.enabled () then Events.emit (Events.Checkpoint_replayed { dir; replayed })
  end;
  if Journal.dropped_tail t then Metrics.incr "checkpoint.dropped";
  t

let close = Journal.close
let dir = Journal.dir
let path = Journal.path
let replayed = Journal.replayed
let served = Journal.served
let appended = Journal.appended
let dropped_tail = Journal.dropped_tail
let entries = Journal.entries
let mem t ~key = Journal.mem t key

let lookup : type a. t -> key:string -> a option =
 fun t ~key ->
  match Journal.find t key with
  | None -> None
  | Some v ->
    Metrics.incr "checkpoint.served";
    Some (Marshal.from_string v 0)

let store t ~key v =
  if Journal.add t ~key ~value:(Marshal.to_string v []) then
    Metrics.incr "checkpoint.appended"

(* --- the process-wide active journal -------------------------------- *)

let active_state : t option Atomic.t = Atomic.make None
let set_active c = Atomic.set active_state c
let active () = Atomic.get active_state
