(** CRC-guarded append-only record journal: the one on-disk record
    format under {!Checkpoint} and {!Store}, and the u32/CRC framing the
    PPTRC01 trace format reuses.

    A journal file is an 8-byte magic followed by records

    {v [klen:u32le] [key bytes] [vlen:u32le] [value bytes] [crc:u32le] v}

    where crc is CRC-32 (IEEE 802.3) over [key ^ value].  Replay at
    {!open_} is corruption-tolerant: records are read until the first
    truncated, over-long or CRC-mismatching one, the file is truncated
    back to the last good record, and the lost tail is simply
    recomputed by the caller — a crash mid-append can at worst lose the
    record being written, never serve a corrupt value.  Replay is
    first-write-wins, matching {!add}: a duplicate key on disk is a
    {e dead} record that can never be served; dead records are counted
    at replay and reclaimed by {!compact}.

    A journal holds one {!Lockfile} on [<file>.lock] from {!open_} to
    {!close}, so a second writer on the same file raises
    {!Lockfile.Locked} instead of interleaving records.  Keys and
    values are opaque bytes; the callers choose the magic, marshal the
    values and keep their own counters.  All operations are
    domain-safe. *)

(** {1 Framing} *)

val crc32 : string -> int32
(** CRC-32 (IEEE 802.3, reflected, pre/post-conditioned) — the record
    checksum.  [crc32 "123456789" = 0xCBF43926l]. *)

val crc : string -> int
(** {!crc32} as a non-negative int, the form a u32 field stores. *)

val crc_sub : Bytes.t -> int -> int -> int
(** [crc_sub b off len] is {!crc} of the [len] bytes of [b] starting
    at [off], without copying them out — for readers that reuse one
    buffer across records.  Raises [Invalid_argument] when the range
    is not inside [b]. *)

val output_u32 : out_channel -> int -> unit
(** Write the low 32 bits of an int, little-endian. *)

val input_u32 : in_channel -> int
(** Read a little-endian u32.  Raises [End_of_file] when the channel
    ends before all four bytes. *)

val encode_record : key:string -> value:string -> string
(** The raw on-disk bytes of one record — exposed so tests and the
    chaos harness can synthesize duplicate (dead) or torn records. *)

(** {1 Journals} *)

type t

val open_ : dir:string -> name:string -> magics:string list -> resume:bool -> t
(** Open (creating [dir] as needed) the journal file [dir/name] and
    take its lock.  With [resume = true] a file starting with any of
    [magics] is replayed (tolerantly — see above) and extended;
    otherwise — [resume = false], no file, an empty file or a foreign
    header — a fresh file starting with the first of [magics] is
    written.  A leftover [dir/name.tmp] from an interrupted {!compact}
    is discarded. *)

val close : t -> unit
(** Flush and close the file and release the lock.  Idempotent; later
    {!add}s still populate the in-memory table but no longer persist. *)

val flush : t -> unit

val find : t -> string -> string option
(** The value for a key, if present; hits are counted by {!served}. *)

val mem : t -> string -> bool

val add : t -> key:string -> value:string -> bool
(** Append [key -> value] and flush, unless the key is already present
    (first write wins).  [true] when a record was written; [false] for
    a present key or a closed journal. *)

val keys : t -> string list
(** Every key, in no particular order. *)

val entries : t -> int
val dir : t -> string
val path : t -> string

val replayed : t -> int
(** Keys recovered from disk at {!open_}. *)

val served : t -> int
(** {!find} hits since {!open_}. *)

val appended : t -> int
(** Records written since {!open_}. *)

val dropped_tail : t -> bool
(** Whether {!open_} truncated a corrupt or half-written tail. *)

val header : t -> string
(** The magic the file currently starts with. *)

val live_bytes : t -> int
(** Record bytes (excluding the magic) of live records. *)

val dead_records : t -> int
(** On-disk records shadowed by an earlier write of the same key. *)

val dead_bytes : t -> int
(** Record bytes occupied by dead records. *)

val bytes : t -> int
(** Current on-disk size of the file in bytes. *)

(** {1 Compaction} *)

type compact_stats = {
  live : int;  (** records written to the new file *)
  reclaimed_records : int;  (** dead records dropped *)
  reclaimed_bytes : int;  (** dead record bytes dropped *)
  before_bytes : int;  (** on-disk size before *)
  after_bytes : int;  (** on-disk size after *)
}

val compact : ?on_step:(int -> unit) -> t -> magic:string -> compact_stats
(** Rewrite the live records (sorted by key — deterministic) under
    [magic]: write [name.tmp], fsync it, atomically [rename] it over
    the journal file, fsync the directory and reopen the append
    channel.  The old file is authoritative until the rename — the
    single commit point — so a SIGKILL at any instruction leaves either
    the complete old file or the complete new one.  Raises
    [Invalid_argument] on a closed journal.

    [on_step] is the kill seam: [0] before the tmp exists, [i] after
    the i-th live record, [live+1] after the fsync (just before the
    rename), [live+2] after the rename. *)
