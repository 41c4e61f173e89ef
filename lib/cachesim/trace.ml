type entry = {
  addr : int;
  write : bool;
}

type t = entry array

let of_entries a = Array.copy a

let record ~next ~n =
  if n < 0 then invalid_arg "Trace.record: n < 0";
  Array.init n (fun _ -> next ())

let length = Array.length
let get t i = t.(i)
let iter t f = Array.iter f t

(* replay loops carry the engine's cooperative deadline seam: one poll
   every 4096 accesses converts a wedged replay into a typed
   [timed_out] fault without measurable overhead *)
let replay t cache =
  Array.iteri
    (fun i e ->
      if i land 4095 = 4095 then Nmcache_engine.Deadline.poll ~stage:"cachesim.replay";
      ignore (Cache.access cache e.addr ~write:e.write))
    t

let replay_hierarchy t h =
  Array.iteri
    (fun i e ->
      if i land 4095 = 4095 then Nmcache_engine.Deadline.poll ~stage:"cachesim.replay";
      ignore (Hierarchy.access h e.addr ~write:e.write))
    t

type stats = {
  accesses : int;
  writes : int;
  distinct_blocks : int;
  footprint_bytes : int;
  sequential_fraction : float;
}

let zero_stats =
  {
    accesses = 0;
    writes = 0;
    distinct_blocks = 0;
    footprint_bytes = 0;
    sequential_fraction = 0.0;
  }

(* Incremental form of [analyze], shared with the streaming engine:
   memory is O(footprint) — the distinct-block set — never O(trace).
   The set is a flat [Intmap] keyed by the zigzagged block number
   ([addr / 64] may be negative; Intmap keys may not), and an access to
   the previous access's block skips the probe altogether. *)
type analyzer = {
  blocks : Intmap.t;
  mutable a_accesses : int;
  mutable a_writes : int;
  mutable a_sequential : int;
  mutable a_prev : int;
  mutable a_prev_block : int;  (* zigzagged; -1 before the first access *)
}

let analyzer () =
  {
    blocks = Intmap.create ~initial_capacity:4096 ();
    a_accesses = 0;
    a_writes = 0;
    a_sequential = 0;
    a_prev = min_int;
    a_prev_block = -1;
  }

(* |addr / 64| < max_int / 2, so the zigzag never overflows *)
let block_key addr =
  let b = addr / 64 in
  (b lsl 1) lxor (b asr 62)

let feed_analyzer a e =
  a.a_accesses <- a.a_accesses + 1;
  if e.write then a.a_writes <- a.a_writes + 1;
  let key = block_key e.addr in
  if key <> a.a_prev_block then begin
    ignore (Intmap.add_if_absent a.blocks key);
    a.a_prev_block <- key
  end;
  if a.a_prev <> min_int && e.addr >= a.a_prev && e.addr <= a.a_prev + 64 then
    a.a_sequential <- a.a_sequential + 1;
  a.a_prev <- e.addr

(* total, unlike [analyze]: an empty stream has a defined answer *)
let analyzer_stats a =
  if a.a_accesses = 0 then zero_stats
  else
    let blocks = Intmap.length a.blocks in
    {
      accesses = a.a_accesses;
      writes = a.a_writes;
      distinct_blocks = blocks;
      footprint_bytes = 64 * blocks;
      sequential_fraction =
        float_of_int a.a_sequential /. float_of_int a.a_accesses;
    }

let analyze t =
  if Array.length t = 0 then invalid_arg "Trace.analyze: empty trace";
  let a = analyzer () in
  Array.iter (feed_analyzer a) t;
  analyzer_stats a

let pp_stats fmt s =
  Format.fprintf fmt
    "%d accesses (%.1f%% writes), footprint %d blocks (%.1f KB), %.1f%% sequential"
    s.accesses
    (100.0 *. float_of_int s.writes /. float_of_int (max 1 s.accesses))
    s.distinct_blocks
    (float_of_int s.footprint_bytes /. 1024.0)
    (100.0 *. s.sequential_fraction)
