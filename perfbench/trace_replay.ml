(* Workload [trace-replay]: record a tpcc trace to PPTRC01, then stream
   it back through decode -> analyzer -> 16 KB L1 + 1 MB L2.

   One round records the trace (the cold side: generate, encode, write)
   and then replays the recording (the warm side: decode, analyze,
   simulate).  An operation is one 64 Ki-access chunk on either side. *)

module Json = Nmcache_engine.Json
module Stream_trace = Nmcache_cachesim.Stream_trace
module Trace = Nmcache_cachesim.Trace
module Cache = Nmcache_cachesim.Cache
module Hierarchy = Nmcache_cachesim.Hierarchy
module Stats = Nmcache_cachesim.Stats
module Address = Nmcache_cachesim.Address
module Replacement = Nmcache_cachesim.Replacement
module Registry = Nmcache_workload.Registry
module Gen = Nmcache_workload.Gen
module Access = Nmcache_workload.Access
module Missrate = Nmcache_workload.Missrate
module Profile = Nmcache_workload.Profile

let workload = "tpcc"
let l1_size = 16 * 1024
let l2_size = 1024 * 1024

(* Missrate.simulate's defaults, so the reference matches *)
let l1_assoc = 4
let l2_assoc = 8
let block = 64

type cfg = { n : int; chunk : int; seed : int64; path : string }

let entry_of (a : Access.t) = { Trace.addr = a.Access.addr; write = a.Access.write }
let warmup_at cfg = int_of_float (Profile.warmup_fraction *. float_of_int cfg.n)

let caches () =
  let cache size_bytes assoc =
    Cache.create ~size_bytes ~assoc ~block_bytes:block ~policy:Replacement.Lru ()
  in
  (cache l1_size l1_assoc, cache l2_size l2_assoc)

(* What one replay computes; two replays of one recording must agree on
   every field, and with the materialised reference. *)
type outcome = {
  rates : Missrate.point;
  stats : Trace.stats;
  l1 : Stats.t;
  l2 : Stats.t;
}

let outcome ~l1 ~l2 ~an =
  let s1 = Cache.stats l1 and s2 = Cache.stats l2 in
  let rates =
    {
      Missrate.l1_miss = Stats.miss_rate s1;
      l2_local = Stats.miss_rate s2;
      l2_global =
        (if s1.Stats.accesses = 0 then 0.0
         else float_of_int s2.Stats.misses /. float_of_int s1.Stats.accesses);
    }
  in
  { rates; stats = Trace.analyzer_stats an; l1 = s1; l2 = s2 }

(* -- untraced sides: per-chunk latencies -------------------------------- *)

(* Record the trace; returns the per-chunk latencies (generate + encode +
   write of one chunk's worth of accesses; the first chunk also pays for
   building the generator). *)
let record cfg =
  let t0 = Spans.now () in
  let gen = Registry.build ~seed:cfg.seed workload in
  let stamps = ref [] and i = ref 0 in
  let next () =
    if !i > 0 && !i mod cfg.chunk = 0 then stamps := Spans.now () :: !stamps;
    incr i;
    entry_of (Gen.next gen)
  in
  Stream_trace.write_file ~path:cfg.path ~name:workload ~chunk_size:cfg.chunk ~next ~n:cfg.n ();
  let marks = t0 :: List.rev (Spans.now () :: !stamps) in
  let rec diffs = function a :: (b :: _ as rest) -> (b -. a) :: diffs rest | _ -> [] in
  diffs marks

(* Replay the recording through the analyzer and the real Hierarchy;
   returns the outcome, per-chunk latencies (decode + analyze +
   simulate) and minor words allocated. *)
let replay cfg =
  let l1, l2 = caches () in
  let h = Hierarchy.create ~l1 ~l2 in
  let an = Trace.analyzer () in
  let warm = warmup_at cfg in
  let p = ref 0 and lat = ref [] in
  let words0 = Gc.minor_words () in
  let last = ref (Spans.now ()) in
  Stream_trace.fold_chunks (Stream_trace.of_file ~chunk_size:cfg.chunk cfg.path) ~init:()
    ~f:(fun () ~index:_ entries ->
      Array.iter
        (fun (e : Trace.entry) ->
          if !p = warm then begin
            Cache.reset_stats l1;
            Cache.reset_stats l2
          end;
          Trace.feed_analyzer an e;
          ignore (Hierarchy.access h e.Trace.addr ~write:e.Trace.write);
          incr p)
        entries;
      let t = Spans.now () in
      lat := (t -. !last) :: !lat;
      last := t);
  let words = Gc.minor_words () -. words0 in
  (outcome ~l1 ~l2 ~an, List.rev !lat, words)

(* -- traced sides: one span per layer call ------------------------------ *)

let record_traced cfg =
  let gen = Spans.with_span "workload.build" (fun () -> Registry.build ~seed:cfg.seed workload) in
  let buf = Array.make cfg.chunk { Trace.addr = 0; write = false } in
  let pos = ref 0 and filled = ref 0 and produced = ref 0 in
  let refill () =
    Spans.with_span "workload.gen" (fun () ->
        let m = min cfg.chunk (cfg.n - !produced) in
        for k = 0 to m - 1 do
          buf.(k) <- entry_of (Gen.next gen)
        done;
        produced := !produced + m;
        filled := m;
        pos := 0)
  in
  let next () =
    if !pos >= !filled then refill ();
    let e = buf.(!pos) in
    incr pos;
    e
  in
  Spans.with_span "stream_trace.encode" (fun () ->
      Stream_trace.write_file ~path:cfg.path ~name:workload ~chunk_size:cfg.chunk ~next ~n:cfg.n ())

(* The hierarchy driven level by level, so L1 and L2 each get a span per
   chunk: the L1 pass queues the L2 requests an access makes (the dirty
   victim's write-back, then the demand fetch) in order, with a marker
   where the warm-up boundary resets statistics, and the L2 pass replays
   the queue.  Same request order as Hierarchy.access, so every
   statistic is identical — checked against the untraced replay. *)
let replay_traced cfg =
  let l1, l2 = caches () in
  let an = Trace.analyzer () in
  let warm = warmup_at cfg in
  let queue = Array.make ((2 * cfg.chunk) + 1) 0 in
  let p = ref 0 and l2_accesses = ref 0 in
  Spans.with_span "stream_trace.decode" (fun () ->
      Stream_trace.fold_chunks (Stream_trace.of_file ~chunk_size:cfg.chunk cfg.path) ~init:()
        ~f:(fun () ~index:_ entries ->
          Spans.with_span "trace.analyze" (fun () -> Array.iter (Trace.feed_analyzer an) entries);
          let m = ref 0 in
          let push v =
            queue.(!m) <- v;
            incr m
          in
          Spans.with_span "cache.l1" (fun () ->
              Array.iter
                (fun (e : Trace.entry) ->
                  if !p = warm then begin
                    Cache.reset_stats l1;
                    push (-1)
                  end;
                  let o = Cache.access l1 e.Trace.addr ~write:e.Trace.write in
                  if not o.Cache.hit then begin
                    (match o.Cache.victim with
                    | Some vb when o.Cache.victim_dirty ->
                      push ((Address.of_block vb ~block_bytes:block lsl 1) lor 1)
                    | Some _ | None -> ());
                    push (e.Trace.addr lsl 1)
                  end;
                  incr p)
                entries);
          Spans.with_span "hierarchy.l2" (fun () ->
              for k = 0 to !m - 1 do
                let v = queue.(k) in
                if v < 0 then Cache.reset_stats l2
                else begin
                  incr l2_accesses;
                  ignore (Cache.access l2 (v lsr 1) ~write:(v land 1 = 1))
                end
              done)));
  (outcome ~l1 ~l2 ~an, !l2_accesses)

(* -- the workload ------------------------------------------------------- *)

let cfg_of (p : Out.params) dir =
  {
    n = (if p.Out.smoke then 200_000 else 4_000_000);
    chunk = (if p.Out.smoke then 8192 else Stream_trace.default_chunk_size);
    seed = Int64.of_int p.Out.seed;
    path = Filename.concat dir "trace.pptrc";
  }

let same a b = a.rates = b.rates && a.stats = b.stats && a.l1 = b.l1 && a.l2 = b.l2

let describe o =
  Printf.sprintf "L1 %.9f L2 %.9f global %.9f, %d accesses, %d blocks, seq %.9f"
    o.rates.Missrate.l1_miss o.rates.Missrate.l2_local o.rates.Missrate.l2_global
    o.stats.Trace.accesses o.stats.Trace.distinct_blocks o.stats.Trace.sequential_fraction

type round = {
  wall : float;
  cold : float list;  (** per-chunk record latencies *)
  warm : float list;  (** per-chunk replay latencies *)
  outcome : outcome;
  words : float;  (** minor words the replay allocated *)
}

type traced = {
  t_wall : float;
  self : string -> float * int;  (** self time and count per span name *)
  t_outcome : outcome;
  l2_accesses : int;
}

let layer_spans =
  [
    "workload.build";
    "workload.gen";
    "stream_trace.encode";
    "stream_trace.decode";
    "trace.analyze";
    "cache.l1";
    "hierarchy.l2";
  ]

let run (p : Out.params) (ledger : Out.ledger) =
  let dir = Out.scratch_dir "trace-replay" in
  Fun.protect ~finally:(fun () -> Out.rm_rf dir) @@ fun () ->
  let cfg = cfg_of p dir in
  let chunks = (cfg.n + cfg.chunk - 1) / cfg.chunk in
  (* set-up: build the generator and record the first trace, three times *)
  let setups = List.init 3 (fun _ -> snd (Out.timed (fun () -> ignore (record cfg)))) in
  let untraced () =
    let t0 = Spans.now () in
    let cold = record cfg in
    let outcome, warm, words = replay cfg in
    { wall = Spans.now () -. t0; cold; warm; outcome; words }
  in
  let traced () =
    Spans.reset ();
    Spans.enabled := true;
    let t0 = Spans.now () in
    record_traced cfg;
    let t_outcome, l2_accesses = replay_traced cfg in
    let t_wall = Spans.now () -. t0 in
    Spans.enabled := false;
    { t_wall; self = Spans.self_times (Spans.all ()); t_outcome; l2_accesses }
  in
  (* a traced run alternates untraced and traced rounds, so host drift
     does not show as tracing overhead *)
  let rounds, traced =
    if not p.Out.trace then (Out.rounds ~seconds:p.Out.seconds (fun _ -> untraced ()), [])
    else
      List.split
        (Out.rounds ~seconds:p.Out.seconds (fun _ ->
             let u = untraced () in
             (u, traced ())))
  in
  let peak = Out.peak_rss_mb "self" in
  let bytes = (Unix.stat cfg.path).Unix.st_size in
  let walls = List.map (fun r -> r.wall) rounds in
  let cold = List.concat_map (fun r -> r.cold) rounds in
  let warm = List.concat_map (fun r -> r.warm) rounds in
  (* correctness: every replay equals the materialised reference *)
  let rates =
    let r = Missrate.simulate ~seed:cfg.seed ~workload ~l1_size ~l2_size ~n:cfg.n () in
    if p.Out.tamper then { r with Missrate.l1_miss = r.Missrate.l1_miss +. 1e-6 } else r
  in
  let stats =
    let gen = Registry.build ~seed:cfg.seed workload in
    Trace.analyze (Trace.record ~next:(fun () -> entry_of (Gen.next gen)) ~n:cfg.n)
  in
  let first = (List.hd rounds).outcome in
  List.iteri
    (fun i r ->
      let o = r.outcome in
      let ops = 2 * chunks in
      Out.attempt ledger ~ops;
      if o.rates <> rates || o.stats <> stats then
        Out.fail ledger ~ops "round %d: %s; reference L1 %.9f L2 %.9f global %.9f, %d blocks" i
          (describe o) rates.Missrate.l1_miss rates.Missrate.l2_local rates.Missrate.l2_global
          stats.Trace.distinct_blocks
      else if not (same o first) then
        Out.fail ledger ~ops "round %d differs from round 0: %s" i (describe o))
    rounds;
  let e2e, e2e_detail =
    Out.end_to_end ~setups ~walls ~peak_mb:peak ~warm
      ~warm_per_s:(float_of_int (List.length warm) /. Sample.sum warm)
      ~warm_cap:95.0 ~cold ~cold_cap:95.0
  in
  let n = float_of_int cfg.n in
  let layers =
    if not p.Out.trace then []
    else begin
      (* the level-by-level replay must reproduce the Hierarchy replay *)
      List.iteri
        (fun i t ->
          Out.attempt ledger ~ops:chunks;
          if not (same t.t_outcome first) then
            Out.fail ledger ~ops:chunks "traced replay %d differs from the Hierarchy replay: %s" i
              (describe t.t_outcome))
        traced;
      let total name = Sample.sum (List.map (fun t -> fst (t.self name)) traced) in
      let k = float_of_int (List.length traced) in
      let per_access name = 1e9 *. total name /. (k *. n) in
      let l2_total = List.fold_left (fun a t -> a + t.l2_accesses) 0 traced in
      let traced_walls = List.map (fun t -> t.t_wall) traced in
      [
        ("workload.build_ms", 1e3 *. total "workload.build" /. k);
        ("workload.gen_ns_per_access", per_access "workload.gen");
        ("stream_trace.encode_ns_per_access", per_access "stream_trace.encode");
        ("stream_trace.decode_ns_per_access", per_access "stream_trace.decode");
        ("stream_trace.bytes_per_access", float_of_int bytes /. n);
        ("trace.analyze_ns_per_access", per_access "trace.analyze");
        ("cache.l1_ns_per_access", per_access "cache.l1");
        ( "hierarchy.l2_ns_per_l2_access",
          1e9 *. total "hierarchy.l2" /. float_of_int (max 1 l2_total) );
        ( "cachesim.alloc_words_per_access",
          Sample.median (List.map (fun r -> r.words) rounds) /. n );
        ("sim.l1_misses", float_of_int first.l1.Stats.misses);
        ("sim.l2_misses", float_of_int first.l2.Stats.misses);
        ("sim.writebacks", float_of_int (first.l1.Stats.writebacks + first.l2.Stats.writebacks));
        ( "residual_frac",
          1.0 -. (Sample.sum (List.map total layer_spans) /. Sample.sum traced_walls) );
        ("trace_overhead_frac", (Sample.median traced_walls /. Sample.median walls) -. 1.0);
      ]
    end
  in
  (* M accesses per second of one side, median over rounds *)
  let rate side = n /. Sample.median (List.map (fun r -> Sample.sum (side r)) rounds) /. 1e6 in
  let detail =
    [
      ("jobs", Json.Int 1);
      ("context", Json.String (Printf.sprintf "%s, %d accesses" workload cfg.n));
      ("trace_workload", Json.String workload);
      ("accesses", Json.Int cfg.n);
      ("chunk", Json.Int cfg.chunk);
      ("l1", Json.String "16 KB 4-way LRU, 64 B blocks");
      ("l2", Json.String "1 MB 8-way LRU, 64 B blocks");
      ("rounds", Json.Int (List.length rounds));
      ("file_bytes", Json.Int bytes);
      ("record_maccess_per_s", Json.Float (rate (fun r -> r.cold)));
      ("replay_analyze_maccess_per_s", Json.Float (rate (fun r -> r.warm)));
      ("l1_miss_rate", Json.Float first.rates.Missrate.l1_miss);
      ("l2_local_miss_rate", Json.Float first.rates.Missrate.l2_local);
      ("footprint_bytes", Json.Int first.stats.Trace.footprint_bytes);
      ("write_fraction", Json.Float (float_of_int first.stats.Trace.writes /. n));
    ]
    @ e2e_detail
  in
  { Out.e2e; layers; detail }
