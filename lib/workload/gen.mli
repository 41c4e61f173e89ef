(** Address-stream generators.

    A generator is a named, stateful producer of an infinite access
    stream.  All randomness comes from the generator's own seeded
    {!Nmcache_numerics.Rng} stream, so a given (name, seed) pair always
    replays the identical trace. *)

type t

val make : name:string -> (unit -> Access.t) -> t
val name : t -> string
val next : t -> Access.t

val take : t -> int -> Access.t array
(** The next [n] accesses.  Raises [Invalid_argument] if [n < 0]. *)

val iter : t -> int -> (Access.t -> unit) -> unit
(** Feed the next [n] accesses to a consumer without materialising
    them. *)

val fill : t -> int array -> int -> unit
(** [fill t chunk len] writes the next [len] accesses into
    [chunk.(0) .. chunk.(len - 1)], each packed as
    [addr lsl 1 lor write] (decode with [asr 1] and [land 1]).  Raises
    [Invalid_argument] if [len] exceeds the chunk. *)

(** {1 Combinators} *)

val mix : name:string -> rng:Nmcache_numerics.Rng.t -> (float * t) list -> t
(** [mix ~name ~rng parts] draws each access from one of the [parts]
    with probability proportional to its weight; each part keeps its own
    state, so interleaving preserves per-part locality.  Raises
    [Invalid_argument] on an empty list or non-positive weights. *)

val with_write_fraction : rng:Nmcache_numerics.Rng.t -> p:float -> t -> t
(** Overrides the stream's read/write mix with i.i.d. writes of
    probability [p] (clamped to [0, 1]). *)

(** {1 Micro-patterns (tests and calibration)} *)

val sequential : ?start:int -> ?stride:int -> name:string -> unit -> t
(** [start], [start+stride], ... (defaults 0, 64): never reuses a block
    when [stride] ≥ block size. *)

val cyclic : ?start:int -> ?stride:int -> name:string -> length:int -> unit -> t
(** Loops over [length] addresses forever — the LRU litmus pattern:
    hits everywhere when the loop fits, 100% misses when it exceeds
    capacity by one under LRU. *)

val uniform_random :
  ?base:int -> name:string -> rng:Nmcache_numerics.Rng.t -> footprint:int -> unit -> t
(** Uniform random word addresses over [footprint] bytes. *)
