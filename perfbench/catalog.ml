(* The metric catalogue: every metric the benchmark reports, its unit,
   and (for per-layer metrics) the end-to-end metric and workload it
   should move.  BENCHMARK.json lists the same names; run.py checks that
   the two agree. *)

(* name, why it was chosen (the same text as in BENCHMARK.json) *)
let workloads =
  [
    ( "trace-replay",
      "record tpcc to PPTRC01 and replay it through decode, analyzer, 16 KB L1 and 1 MB \
       L2: stresses generator, encode/decode, analyzer and cache access path" );
    ( "reproduce",
      "all 18 paper experiments at --jobs 2, cold then memo-warm: stresses \
       characterise+fit, Mattson profiles, scheme DP and pool fan-out; no serve or store" );
    ( "serve-mix",
      "ppcache serve socket, fresh store: connection A sends fresh keys (fit/profile + \
       store append), B repeats warm keys (store, JSON, dispatch)" );
  ]

(* name, unit, better *)
let end_to_end =
  [
    ("setup_s", "s", "lower");
    ("wall_s", "s", "lower");
    ("peak_mem_mb", "MB", "lower");
    ("warm_p50_us", "us", "lower");
    ("warm_tail_us", "us", "lower");
    ("warm_per_s", "1/s", "higher");
    ("cold_p50_ms", "ms", "lower");
    ("cold_tail_ms", "ms", "lower");
  ]

let experiment_ids = Core.Experiments.ids

(* name, unit, better, what it should move: "metric (workload)" *)
let layer ?(better = "lower") name unit moves = (name, unit, better, moves)

let per_layer =
  [
    layer "workload.build_ms" "ms" "cold_p50_ms, cold_tail_ms, wall_s (trace-replay)";
    layer "workload.gen_ns_per_access" "ns" "cold_p50_ms (trace-replay); wall_s (reproduce)";
    layer "stream_trace.encode_ns_per_access" "ns" "cold_p50_ms (trace-replay)";
    layer "stream_trace.decode_ns_per_access" "ns"
      "warm_p50_us, warm_per_s (trace-replay); no other workload";
    layer "stream_trace.bytes_per_access" "B" "warm_p50_us, cold_p50_ms (trace-replay)";
    layer "trace.analyze_ns_per_access" "ns" "warm_p50_us (trace-replay)";
    layer "cache.l1_ns_per_access" "ns"
      "warm_p50_us (trace-replay); wall_s (reproduce, through the L1 filters)";
    layer "hierarchy.l2_ns_per_l2_access" "ns" "warm_p50_us (trace-replay)";
    layer "cachesim.alloc_words_per_access" "words"
      "warm_p50_us (trace-replay); wall_s (reproduce)";
    layer "sim.l1_misses" "count" "none: must repeat exactly (trace-replay)";
    layer "sim.l2_misses" "count" "none: must repeat exactly (trace-replay)";
    layer "sim.writebacks" "count" "none: must repeat exactly (trace-replay)";
    layer "mattson.ns_per_access" "ns" "wall_s, cold_p50_ms (reproduce); cold_p50_ms (serve-mix)";
    layer "profile.l1_filtered_ms" "ms" "wall_s, cold_p50_ms (reproduce); cold_p50_ms (serve-mix)";
    layer "missrate.grid_s" "s" "wall_s, cold_p50_ms (reproduce)";
    layer "cache_model.evaluate_us" "us" "wall_s (reproduce); cold_tail_ms (serve-mix)";
    layer "fit.characterize_and_fit_ms.16KB" "ms" "wall_s (reproduce); cold_tail_ms (serve-mix)";
    layer "fit.characterize_and_fit_ms.1MB" "ms" "wall_s (reproduce); cold_tail_ms (serve-mix)";
    layer "scheme.minimize_us.I" "us" "wall_s (reproduce); cold_tail_ms (serve-mix)";
    layer "scheme.minimize_us.II" "us" "wall_s (reproduce); cold_tail_ms (serve-mix)";
    layer "scheme.minimize_us.III" "us" "wall_s (reproduce); cold_tail_ms (serve-mix)";
    layer "fit.lm_fits" "count" "wall_s (reproduce)";
    layer ~better:"higher" "fit.lm_converged_ratio" "ratio"
      "wall_s (reproduce): the fit layer's useful-work ratio";
    layer "fit.retry_exhausted" "count" "wall_s (reproduce)";
  ]
  @ List.map
      (fun id -> layer ("experiment." ^ id ^ "_s") "s" "wall_s, cold_p50_ms (reproduce)")
      experiment_ids
  @ [
      layer "service.handle_us.optimize.warm" "us" "warm_p50_us (serve-mix)";
      layer "service.handle_us.optimize.cold" "us" "cold_tail_ms (serve-mix)";
      layer "service.handle_us.miss_curve.warm" "us" "warm_p50_us (serve-mix)";
      layer "service.handle_us.miss_curve.cold" "us" "cold_p50_ms (serve-mix)";
      layer "service.handle_us.amat" "us" "warm_p50_us (serve-mix)";
      layer "store.lookup_us" "us" "warm_p50_us, warm_per_s (serve-mix)";
      layer "store.add_us" "us" "cold_p50_ms (serve-mix)";
      layer "store.open_ms" "ms" "setup_s (serve-mix)";
      layer ~better:"higher" "store.hit_ratio" "ratio" "warm_per_s (serve-mix)";
      layer "json.parse_us" "us" "warm_p50_us (serve-mix)";
      layer "json.print_us" "us" "warm_p50_us (serve-mix)";
      layer "server.residual_us" "us" "warm_p50_us (serve-mix)";
      layer "server.blocked_requests" "count" "warm_per_s, warm_tail_us (serve-mix)";
      layer "residual_frac" "ratio" "share of traced time no layer span covers (each workload)";
      layer "trace_overhead_frac" "ratio" "traced over untraced wall time, minus 1 (each workload)";
    ]
