(** Persistent cross-run model store: the {!Checkpoint} idea
    generalised from "one run's sweep slots" to "every expensive
    artefact this machine has ever computed".

    The store is a {!Journal} ([DIR/store.ppck]) of
    [(namespace, key) -> marshalled value] records under its own
    magics: [PPSTOR01] for an append-grown journal, [PPSTOR02] for a
    compacted segment.  The record format, the corruption-tolerant
    first-write-wins replay (opening always replays and truncates a
    torn tail), the live/dead accounting, the crash-safe compaction
    and the single-writer {!Lockfile} on [store.ppck.lock] are all
    {!Journal}'s; this module adds namespaces, the [store.*] counters
    and the process-wide active store.

    [ppcache serve] arms one store process-wide ({!set_active}) and
    keys everything by {!Core.Context.fingerprint}-derived strings:

    - ["model"]    — fitted cache models ({!Nmcache_fit.Fitted_cache.t}),
                     so a restarted server never re-characterises a
                     cache it has seen under any budget;
    - ["curve"]    — memoised miss-rate curves;
    - ["response"] — rendered query results, so a warm query answers in
                     microseconds without touching the numeric stack.

    Values travel through [Marshal]: a lookup must deserialise at the
    type that was stored, which the namespace discipline guarantees —
    one namespace, one value type.  All operations are domain-safe. *)

type t

val open_ : dir:string -> t
(** Open (creating [dir] as needed) and replay the store at
    [dir/store.ppck], truncating any corrupt tail.  Raises
    {!Lockfile.Locked} when another live process holds the directory.
    Counters: [store.replayed], [store.dropped]. *)

val close : t -> unit
(** Flush, close and release the writer lock.  Idempotent. *)

val flush : t -> unit
(** Force buffered appends to disk (appends already flush per record;
    this is the belt-and-braces call on graceful drain). *)

val lookup : t -> ns:string -> key:string -> 'a option
(** The stored value for [(ns, key)], if present — counted under
    [store.hits]; misses under [store.misses].  Unsafe at the wrong
    type, like [Marshal]; respect the namespace discipline. *)

val add : t -> ns:string -> key:string -> 'a -> unit
(** Persist [(ns, key) -> value] (marshalled, CRC-guarded, flushed)
    unless the key is already present — first write wins, so replayed
    and recomputed values can never fight.  Counted under
    [store.appended]. *)

val mem : t -> ns:string -> key:string -> bool

val keys : t -> ns:string -> string list
(** Every key stored under [ns], sorted — the nearest-neighbour index
    the degraded-answer path scans.  Deterministic for a deterministic
    request history. *)

val entries : t -> int
val replayed : t -> int
val appended : t -> int
val served : t -> int
val dropped_tail : t -> bool
val dir : t -> string
val path : t -> string

val bytes : t -> int
(** Current on-disk size of the journal file in bytes. *)

val segment_version : t -> int
(** 1 for a [PPSTOR01] append-grown journal, 2 for a [PPSTOR02]
    compacted segment (both append-able; {!compact} moves to 2). *)

val live_bytes : t -> int
(** Record bytes (excluding the 8-byte magic) of live records — the
    size a compacted segment's body would have. *)

val dead_records : t -> int
(** On-disk records shadowed by an earlier write of the same key:
    unreachable under first-write-wins, reclaimable by {!compact}. *)

val dead_bytes : t -> int
(** Record bytes occupied by dead records. *)

(* -- compaction ------------------------------------------------------ *)

type compact_stats = {
  live : int;  (** records written to the new segment *)
  reclaimed_records : int;  (** dead records dropped *)
  reclaimed_bytes : int;  (** dead record bytes dropped *)
  before_bytes : int;  (** on-disk size before *)
  after_bytes : int;  (** on-disk size after *)
}

val compact : ?on_step:(int -> unit) -> t -> compact_stats
(** Rewrite the live records into a fresh [PPSTOR02] segment with
    {!Journal.compact}: sorted by key, via [store.ppck.tmp] + fsync +
    atomic rename, so a SIGKILL at any instruction leaves either the
    complete old segment or the complete new one.  Requires the store
    open.  Counters: [store.compactions], [store.reclaimed_bytes].

    [on_step] is the chaos-test kill seam: [0] before the tmp exists,
    [i] after the i-th live record, [live+1] after the fsync (just
    before the rename), [live+2] after the rename. *)

(* -- the process-wide active store ---------------------------------- *)

val set_active : t option -> unit
val active : unit -> t option

(* -- exposed for tests ----------------------------------------------- *)

val magic : string
(** ["PPSTOR01"] — append-grown journal. *)

val magic_compacted : string
(** ["PPSTOR02"] — compacted segment written by {!compact}. *)

val store_name : string
(** ["store.ppck"]. *)

val encode_record : ns:string -> key:string -> value:string -> string
(** {!Journal.encode_record} of the namespaced key ([value] is the
    already-encoded payload, e.g. a [Marshal] string) — exposed so
    tests and the chaos harness can synthesize duplicate (dead) or torn
    records. *)
