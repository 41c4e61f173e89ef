(** Content-keyed, domain-safe memo cache for expensive intermediates
    (fitted cache models, simulated miss curves).

    Keys are strings describing everything a value depends on; the
    compute function must be a pure function of that key.  Lookup and
    insertion are mutex-protected so concurrent sweep workers can share
    one cache, and in-flight computations are deduplicated: a domain
    that requests a key another domain is already computing blocks on a
    condition variable until the value settles, instead of redoing the
    work (if the computation raises, its pending marker is dropped and
    one waiter retries).  Hits and misses are counted under the cache's
    name in {!Trace}; a waiter that received a settled value counts as
    a hit. *)

type 'v t

val create : name:string -> ?size:int -> unit -> 'v t

val name : 'v t -> string

val find_or_compute : 'v t -> string -> (unit -> 'v) -> 'v

val mem : 'v t -> string -> bool
(** Whether [key] holds a settled value.  An in-flight compute does not
    count, and neither does one that raised (its marker is gone).  A
    pure probe: no wait, no hit or miss recorded. *)

val clear : 'v t -> unit
(** Drop all entries (counters in {!Trace} are left untouched). *)

val length : 'v t -> int

val stats : 'v t -> int * int
(** [(hits, misses)] recorded for this cache since the last
    {!Trace.reset}. *)
