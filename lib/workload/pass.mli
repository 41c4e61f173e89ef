(** One generator traversal per (workload, seed, n), shared by every
    consumer that needs that trace.

    The driver builds the workload's generator once, fills a reusable
    chunk of packed accesses ([addr lsl 1 lor write], see {!Gen.fill})
    and hands each chunk to an array of consumers, each walking it in
    its own loop.  It owns what every traversal shares: the warm-up
    boundary (split inside a chunk when it falls there, every
    consumer's statistics reset, profilers switched to measuring), one
    {!Nmcache_engine.Deadline.poll} per full chunk (stage [simulate]),
    and the [cachesim.generator_passes] counter.

    On top of the driver, a {!t} batches memoised results: callers
    {!request} every result they will need, then {!get} them.  The
    first [get] that has to compute runs one traversal for every
    requested result whose memo key is not yet filled; each result
    still settles under its own memo key, and — unless requested
    without one — its own [simulate] retry and fault-point boundary,
    so a fault on one key fails only that key. *)

type demand = {
  prefetch : Nmcache_cachesim.Prefetch.t;
  mutable accesses : int;  (** measured demand L2 accesses (L1 misses) *)
  mutable misses : int;    (** measured demand L2 misses *)
}
(** A prefetcher plus the demand counters the driver keeps for it. *)

type consumer =
  | Profiler of {
      profiler : Nmcache_cachesim.Mattson.t;
      filter : Nmcache_cachesim.Cache.t option;
          (** profile this LRU L1's miss stream instead of the raw trace *)
    }
  | Cache of Nmcache_cachesim.Cache.t
  | Hierarchy of Nmcache_cachesim.Hierarchy.t
  | Prefetch of demand

val demand : Nmcache_cachesim.Prefetch.t -> demand
(** Zeroed demand counters around a prefetcher. *)

val warmup_fraction : float
(** Fraction of the trace used as an unmeasured warm-up prefix (0.5). *)

val chunk_size : int
(** Accesses per chunk (4096). *)

val traverse :
  workload:string -> seed:int64 -> n:int -> consumer array -> unit
(** Feed the first [n] accesses of the registered workload to every
    consumer, in order.  The first [int_of_float (warmup_fraction *. n)]
    accesses warm the consumers up: at the boundary caches and
    hierarchies reset their statistics, profilers start measuring and
    demand counters restart (a prefetcher's own counters run on).
    Raises [Invalid_argument] for an unknown workload and
    [Fault.Fault] when the deadline expires. *)

(** {1 Batched, memoised results} *)

type t
(** One lazily run traversal of (workload, seed, n). *)

type 'a handle
(** A result requested from a {!t}. *)

val create : workload:string -> seed:int64 -> n:int -> t

val workload : t -> string
val seed : t -> int64
val n : t -> int

val request :
  t ->
  memo:'a Nmcache_engine.Memo.t ->
  key:string ->
  ?fault_point:bool ->
  (unit -> consumer * (unit -> 'a)) ->
  'a handle
(** Register a result: [make ()] builds its consumer and the function
    that reads the result once the traversal is over.  [make] runs
    only when a traversal happens and [key] is not yet filled in
    [memo]; an exception from it fails this result alone.  With
    [fault_point] (the default) the result computes under
    [Retry.run ~stage:"simulate" ~key] with
    [Faultpoint.hit ~point:"simulate" ~key] first. *)

val get : 'a handle -> 'a
(** The memoised result.  The first call needing a compute runs the
    batch's traversal; a result requested after that traversal, or
    dropped from its memo since, gets a traversal of its own.  A
    traversal that raises is retried by the next [get]. *)
