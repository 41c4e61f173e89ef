(* Persistent cross-run model store (see the .mli for the contract): a
   {!Journal} under its own magics, so a store can never be mistaken
   for (or appended onto) a run checkpoint.  Keys carry their namespace
   inline as "<ns>\x00<key>": one flat table, namespaced lookups.

   PPSTOR01 is an append-grown journal, PPSTOR02 a compacted segment
   (every key exactly once); both are append-able after open. *)

type t = Journal.t

let magic = "PPSTOR01"
let magic_compacted = "PPSTOR02"
let store_name = "store.ppck"

let full_key ~ns ~key =
  if String.contains ns '\x00' then invalid_arg "Store: namespace contains NUL";
  ns ^ "\x00" ^ key

let encode_record ~ns ~key ~value = Journal.encode_record ~key:(full_key ~ns ~key) ~value

let open_ ~dir =
  let t =
    Journal.open_ ~dir ~name:store_name ~magics:[ magic; magic_compacted ] ~resume:true
  in
  let replayed = Journal.replayed t in
  if replayed > 0 then Metrics.incr ~by:replayed "store.replayed";
  if Journal.dropped_tail t then Metrics.incr "store.dropped";
  t

let close = Journal.close
let flush = Journal.flush

(* --- access --------------------------------------------------------- *)

let lookup : type a. t -> ns:string -> key:string -> a option =
 fun t ~ns ~key ->
  match Journal.find t (full_key ~ns ~key) with
  | None ->
    Metrics.incr "store.misses";
    None
  | Some v ->
    Metrics.incr "store.hits";
    Some (Marshal.from_string v 0)

let add t ~ns ~key v =
  let key = full_key ~ns ~key in
  if Journal.add t ~key ~value:(Marshal.to_string v []) then Metrics.incr "store.appended"

let mem t ~ns ~key = Journal.mem t (full_key ~ns ~key)

let keys t ~ns =
  let prefix = ns ^ "\x00" in
  let plen = String.length prefix in
  List.filter_map
    (fun k ->
      if String.starts_with ~prefix k then Some (String.sub k plen (String.length k - plen))
      else None)
    (Journal.keys t)
  |> List.sort String.compare

let entries = Journal.entries
let replayed = Journal.replayed
let appended = Journal.appended
let served = Journal.served
let dropped_tail = Journal.dropped_tail
let dir = Journal.dir
let path = Journal.path
let segment_version t = if Journal.header t = magic_compacted then 2 else 1
let live_bytes = Journal.live_bytes
let dead_records = Journal.dead_records
let dead_bytes = Journal.dead_bytes
let bytes = Journal.bytes

(* --- compaction ----------------------------------------------------- *)

type compact_stats = Journal.compact_stats = {
  live : int;
  reclaimed_records : int;
  reclaimed_bytes : int;
  before_bytes : int;
  after_bytes : int;
}

let compact ?on_step t =
  let stats = Journal.compact ?on_step t ~magic:magic_compacted in
  Metrics.incr "store.compactions";
  if stats.reclaimed_bytes > 0 then
    Metrics.incr ~by:stats.reclaimed_bytes "store.reclaimed_bytes";
  stats

(* --- the process-wide active store ---------------------------------- *)

let active_state : t option Atomic.t = Atomic.make None
let set_active s = Atomic.set active_state s
let active () = Atomic.get active_state
