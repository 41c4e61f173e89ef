module Cache = Nmcache_cachesim.Cache
module Mattson = Nmcache_cachesim.Mattson
module Replacement = Nmcache_cachesim.Replacement
module Stats = Nmcache_cachesim.Stats
module Memo = Nmcache_engine.Memo
module Span = Nmcache_engine.Span
module Metrics = Nmcache_engine.Metrics
module Json = Nmcache_engine.Json

type kind =
  | Raw
  | L1_filtered of { l1_size : int; l1_assoc : int }

type t = {
  workload : string;
  kind : kind;
  block : int;
  seed : int64;
  n : int;
  accesses : int;
  cold : int;
  dists : int array;
  counts : int array;
  suffix : int array;
  l1_miss_rate : float;
}

let warmup_fraction = Pass.warmup_fraction

(* drain the per-map probe-length counts accumulated over a traversal
   into one registry histogram: bucket index is the probe length
   (slots past the first; last bucket = 16+) *)
let flush_probe_hist counts =
  Array.iteri
    (fun len count ->
      Metrics.observe_n "cachesim.intmap.probe_len" (float_of_int len) ~count)
    counts

let cache : t Memo.t = Memo.create ~name:"workload.profiles" ()
let clear_cache () = Memo.clear cache

let key ~workload ~kind ~block ~seed ~n =
  match kind with
  | Raw -> Printf.sprintf "prof:raw:%s:%d:%Ld:%d" workload block seed n
  | L1_filtered { l1_size; l1_assoc } ->
    Printf.sprintf "prof:l1:%s:%d:%d:%d:%Ld:%d" workload l1_size l1_assoc block seed n

let instruments ~kind ~block =
  let profiler = Mattson.create ~block_bytes:block () in
  let filter =
    match kind with
    | Raw -> None
    | L1_filtered { l1_size; l1_assoc } ->
      Some
        (Cache.create ~size_bytes:l1_size ~assoc:l1_assoc ~block_bytes:block
           ~policy:Replacement.Lru ())
  in
  (profiler, filter)

(* Reduce a finished traversal — generator pass or stream — to its
   stack-distance CDF, flushing the profiler's and filter's counters. *)
let finish ~workload ~kind ~block ~seed ~n profiler filter =
  Metrics.incr "cachesim.mattson_curves";
  flush_probe_hist (Mattson.drain_probe_hist profiler);
  let l1_miss_rate =
    match filter with
    | Some l1 ->
      flush_probe_hist (Cache.drain_probe_hist l1);
      Stats.flush_to_metrics ~prefix:"cachesim.l1" (Cache.stats l1);
      Stats.miss_rate (Cache.stats l1)
    | None -> Float.nan
  in
  let dists, suffix = Mattson.cdf profiler in
  let k = Array.length dists in
  let counts =
    Array.init k (fun i -> if i + 1 < k then suffix.(i) - suffix.(i + 1) else suffix.(i))
  in
  {
    workload;
    kind;
    block;
    seed;
    n;
    accesses = Mattson.accesses profiler;
    cold = Mattson.cold_misses profiler;
    dists;
    counts;
    suffix;
    l1_miss_rate;
  }

let request pass ?(block = 64) kind =
  let workload = Pass.workload pass and seed = Pass.seed pass and n = Pass.n pass in
  Pass.request pass ~memo:cache ~key:(key ~workload ~kind ~block ~seed ~n) (fun () ->
      let profiler, filter = instruments ~kind ~block in
      ( Pass.Profiler { profiler; filter },
        fun () -> finish ~workload ~kind ~block ~seed ~n profiler filter ))

let raw ?block ?(seed = Registry.default_seed) ~workload ~n () =
  Pass.get (request (Pass.create ~workload ~seed ~n) ?block Raw)

let l1_filtered ?(l1_assoc = 4) ?block ?(seed = Registry.default_seed) ~workload
    ~l1_size ~n () =
  Pass.get
    (request (Pass.create ~workload ~seed ~n) ?block (L1_filtered { l1_size; l1_assoc }))

module Stream_trace = Nmcache_cachesim.Stream_trace
module Trace = Nmcache_cachesim.Trace

(* The streamed twin of a generator pass: same profiler, same L1
   filter, same warmup discipline — measuring off until
   [warmup_fraction] of the stream's declared length has been fed,
   then reset the filter's statistics and measure the rest — so a
   stream wrapping a registry workload yields a profile equal to
   {!raw}/{!l1_filtered}'s field for field.  Not memoised (a stream is
   consumed, not named); deadline polling rides the stream's own chunk
   boundaries. *)
let of_stream ?(block = 64) ?(seed = Registry.default_seed) ~kind stream =
  Span.with_span
    ~attrs:
      [
        ("stream", Json.String (Stream_trace.name stream));
        ( "kind",
          Json.String
            (match kind with Raw -> "raw" | L1_filtered _ -> "l1-filtered") );
      ]
    "profile:stream"
    (fun () ->
      let profiler, filter = instruments ~kind ~block in
      let feed =
        match filter with
        | None -> fun (e : Trace.entry) -> Mattson.access profiler e.Trace.addr
        | Some l1 ->
          fun (e : Trace.entry) ->
            let o = Cache.access l1 e.Trace.addr ~write:e.Trace.write in
            if not o.Cache.hit then Mattson.access profiler e.Trace.addr
      in
      let warm =
        match Stream_trace.declared_length stream with
        | Some n -> int_of_float (warmup_fraction *. float_of_int n)
        | None -> 0
      in
      Mattson.set_measuring profiler false;
      let fed = ref 0 in
      let n_fed =
        Stream_trace.iter stream (fun e ->
            if !fed = warm then begin
              Option.iter Cache.reset_stats filter;
              Mattson.set_measuring profiler true
            end;
            incr fed;
            feed e)
      in
      finish ~workload:(Stream_trace.name stream) ~kind ~block ~seed ~n:n_fed profiler
        filter)

(* --- derivations: no trace traversal below this line ------------------- *)

let misses_at t ~capacity_blocks =
  if capacity_blocks <= 0 then invalid_arg "Profile.misses_at: capacity <= 0";
  t.cold + Mattson.suffix_at ~dists:t.dists ~suffix:t.suffix capacity_blocks

let miss_rate_at t ~capacity_blocks =
  (* derivation-vs-simulation accounting: every miss rate read off the
     profile counts here, every trace traversal under
     cachesim.mattson_curves / cachesim.simulations *)
  Metrics.incr "profile.derived_points";
  if t.accesses = 0 then 0.0
  else float_of_int (misses_at t ~capacity_blocks) /. float_of_int t.accesses

let curve t ~capacities = Array.map (fun c -> miss_rate_at t ~capacity_blocks:c) capacities

(* Set-associative correction (Smith / Hill-style associativity model):
   the d distinct blocks between consecutive uses of a line scatter
   uniformly over S sets, so the line survives in an A-way set iff
   fewer than A of them land in its own set —
   P(miss | d) = P(Binomial(d, 1/S) >= A).  Exact when S = 1 (the
   fully-associative stack condition d >= capacity); the binomial tail
   is evaluated with a stable log-space start and a term recurrence. *)
let setassoc_miss_rate t ~capacity_blocks ~assoc =
  if capacity_blocks <= 0 then invalid_arg "Profile.setassoc_miss_rate: capacity <= 0";
  if assoc < 1 then invalid_arg "Profile.setassoc_miss_rate: assoc < 1";
  let sets = capacity_blocks / assoc in
  if sets <= 1 then miss_rate_at t ~capacity_blocks
  else if t.accesses = 0 then 0.0
  else begin
    Metrics.incr "profile.derived_points";
    let p = 1.0 /. float_of_int sets in
    let q = 1.0 -. p in
    let lq = log q in
    let ratio = p /. q in
    let warm = ref 0.0 in
    for i = 0 to Array.length t.dists - 1 do
      let d = t.dists.(i) in
      (* fewer than [assoc] intervening blocks can never fill the set *)
      if d >= assoc then begin
        let pmf = ref (exp (float_of_int d *. lq)) in
        let below = ref 0.0 in
        for k = 0 to assoc - 1 do
          below := !below +. !pmf;
          pmf := !pmf *. (float_of_int (d - k) /. float_of_int (k + 1)) *. ratio
        done;
        let pmiss = Float.max 0.0 (1.0 -. !below) in
        warm := !warm +. (float_of_int t.counts.(i) *. pmiss)
      end
    done;
    (float_of_int t.cold +. !warm) /. float_of_int t.accesses
  end
