(* Workload [reproduce]: the whole paper reproduction — all 18
   experiments through Experiments.run_many_result at --jobs 2 on the
   quick context — once with every memo table cleared (cold) and once
   more against the filled tables (warm).  An operation is one pass.

   A run measures only a few passes, too few for a tail with ten samples
   beyond it, so the tails read the median (the report says so).  Per
   experiment times are not pooled into one distribution: 18 unlike
   kernels make a median that jumps between neighbouring experiments
   from run to run. *)

module Json = Nmcache_engine.Json
module Experiments = Core.Experiments
module Context = Core.Context
module Report = Core.Report
module Missrate = Nmcache_workload.Missrate
module Profile = Nmcache_workload.Profile
module Registry = Nmcache_workload.Registry
module Gen = Nmcache_workload.Gen
module Access = Nmcache_workload.Access
module Mattson = Nmcache_cachesim.Mattson
module Cache_model = Nmcache_geometry.Cache_model
module Component = Nmcache_geometry.Component
module Fitted_cache = Nmcache_fit.Fitted_cache
module Scheme = Nmcache_opt.Scheme
module Metrics = Nmcache_engine.Metrics
module Executor = Nmcache_engine.Executor

let jobs = 2
let expected_claims = 11

let context (p : Out.params) =
  { (Context.quick ()) with Context.seed = Int64.of_int p.Out.seed }

let clear () =
  Context.clear_memo ();
  Missrate.clear_cache ()

(* One pass over every experiment, each kernel timed (and spanned under
   [prefix ^ id]) inside its own domain. *)
let pass ctx ~prefix =
  let lock = Mutex.create () and times = ref [] in
  let wrap (e : Experiments.t) =
    let id = e.Experiments.id in
    let run ctx =
      let r, dt = Spans.timed (prefix ^ id) (fun () -> e.Experiments.run ctx) in
      Mutex.protect lock (fun () -> times := (id, dt) :: !times);
      r
    in
    { e with Experiments.run }
  in
  let experiments = List.map wrap Experiments.all in
  let results, wall = Out.timed (fun () -> Experiments.run_many_result ctx experiments) in
  (results, !times, wall)

(* "-- X of Y claims reproduced on this run" in the summary artefact *)
let claims_line = Str.regexp "\\([0-9]+\\) of \\([0-9]+\\) claims reproduced"

let claims rendered =
  match Str.search_forward claims_line rendered 0 with
  | _ ->
    let group i = int_of_string (Str.matched_group i rendered) in
    Some (group 1, group 2)
  | exception Not_found -> None

(* Book one pass: every experiment must succeed and render exactly what
   it rendered in the first cold pass, and the summary must report every
   claim reproduced. *)
let check (ledger : Out.ledger) ~tamper ~reference ~label results =
  List.iter
    (fun ((e : Experiments.t), status) ->
      let id = e.Experiments.id in
      Out.attempt ledger;
      match status with
      | Error f -> Out.fail ledger "%s %s: fault %s" label id (Nmcache_engine.Fault.to_string f)
      | Ok artefacts -> (
        let rendered = Report.render artefacts in
        let digest = Digest.to_hex (Digest.string rendered) in
        let expected =
          match Hashtbl.find_opt reference id with
          | Some d -> d
          | None ->
            let d = if tamper then "tampered" else digest in
            Hashtbl.replace reference id d;
            d
        in
        let want = if tamper then expected_claims + 1 else expected_claims in
        if digest <> expected then
          Out.fail ledger "%s %s: output digest %s, expected %s" label id digest expected
        else if id = "summary" then
          match claims rendered with
          | Some (passed, total) when passed = want && total = want -> ()
          | Some (passed, total) ->
            Out.fail ledger "%s summary: %d of %d claims pass, expected %d of %d" label passed total
              want want
          | None -> Out.fail ledger "%s summary: no claim count in its output" label))
    results

(* -- per-layer probes: spans around direct calls into each layer -------- *)

let probe name ?(repeat = 1) f =
  Sample.median
    (List.init repeat (fun _ -> snd (Spans.timed name (fun () -> Sys.opaque_identity (f ())))))

let probes ctx =
  let tech = ctx.Context.tech and seed = ctx.Context.seed and n = ctx.Context.n_sim in
  let l1 = Context.l1_config ctx () and l2 = Context.l2_config ctx () in
  let fit cfg () = Fitted_cache.characterize_and_fit (Cache_model.make tech cfg) in
  let fit16 = probe "fit.characterize_and_fit.16KB" ~repeat:3 (fit l1) in
  let fit1m = probe "fit.characterize_and_fit.1MB" ~repeat:3 (fit l2) in
  let model = Cache_model.make tech l1 in
  let assignment = Component.uniform (Context.reference_knob ctx) in
  let evaluate =
    probe "cache_model.evaluate" ~repeat:5 (fun () ->
        for _ = 1 to 1000 do
          ignore (Sys.opaque_identity (Cache_model.evaluate model assignment))
        done)
    /. 1000.0
  in
  let fitted = fit l1 () and grid = ctx.Context.grid in
  let delay_budget = 1.3 *. Scheme.fastest_access_time fitted ~grid in
  let minimize scheme =
    probe ("scheme.minimize." ^ Scheme.name scheme) ~repeat:5 (fun () ->
        Scheme.minimize_leakage fitted ~grid ~scheme ~delay_budget)
  in
  let workload = List.hd ctx.Context.workloads in
  let addrs =
    let gen = Registry.build ~seed workload in
    Array.init n (fun _ -> (Gen.next gen).Access.addr)
  in
  let mattson =
    probe "mattson" ~repeat:3 (fun () ->
        let m = Mattson.create ~block_bytes:ctx.Context.block_bytes () in
        Array.iter (Mattson.access m) addrs)
    /. float_of_int n
  in
  let profile =
    probe "profile.l1_filtered" ~repeat:3 (fun () ->
        Profile.clear_cache ();
        Profile.l1_filtered ~seed ~workload ~l1_size:ctx.Context.l1_size ~n ())
  in
  let grid_s =
    probe "missrate.grid" (fun () ->
        Missrate.clear_cache ();
        Missrate.grid ~seed ~workloads:ctx.Context.workloads ~l1_sizes:Context.l1_sizes
          ~l2_sizes:Context.l2_sizes ~n ())
  in
  [
    ("mattson.ns_per_access", 1e9 *. mattson);
    ("profile.l1_filtered_ms", 1e3 *. profile);
    ("missrate.grid_s", grid_s);
    ("cache_model.evaluate_us", 1e6 *. evaluate);
    ("fit.characterize_and_fit_ms.16KB", 1e3 *. fit16);
    ("fit.characterize_and_fit_ms.1MB", 1e3 *. fit1m);
    ("scheme.minimize_us.I", 1e6 *. minimize Scheme.Independent);
    ("scheme.minimize_us.II", 1e6 *. minimize Scheme.Split);
    ("scheme.minimize_us.III", 1e6 *. minimize Scheme.Uniform);
  ]

(* -- the workload ------------------------------------------------------- *)

type round = {
  wall : float;
  cold : (string * float) list;  (** per-experiment kernel time, cleared pass *)
  cold_wall : float;
  warm_wall : float;
}

let run (p : Out.params) (ledger : Out.ledger) =
  Executor.set_jobs jobs;
  (* set-up: build the context and characterise its default L1 and L2,
     five times (it is short, so its median needs more samples) *)
  let setups =
    List.init 5 (fun _ ->
        clear ();
        snd
          (Out.timed (fun () ->
               let ctx = context p in
               ignore (Context.fitted ctx (Context.l1_config ctx ()));
               ignore (Context.fitted ctx (Context.l2_config ctx ())))))
  in
  let ctx = context p in
  let reference = Hashtbl.create 32 in
  let round i =
    clear ();
    let t0 = Spans.now () in
    let cold_results, cold, cold_wall = pass ctx ~prefix:"experiment." in
    let warm_results, _, warm_wall = pass ctx ~prefix:"warm." in
    let wall = Spans.now () -. t0 in
    let check pass results =
      let label = Printf.sprintf "round %d %s" i pass in
      check ledger ~tamper:p.Out.tamper ~reference ~label results
    in
    check "cold" cold_results;
    check "warm" warm_results;
    { wall; cold; cold_wall; warm_wall }
  in
  (* three rounds at least, so every median is of three, on a machine
     not slowed down by other load *)
  let min_rounds = if p.Out.smoke || p.Out.trace then 1 else 3 in
  let untraced_seconds = if p.Out.trace then 0.0 else p.Out.seconds in
  let rounds = Out.rounds ~seconds:untraced_seconds ~min_rounds round in
  let peak = Out.peak_rss_mb "self" in
  let walls = List.map (fun r -> r.wall) rounds in
  let warm = List.map (fun r -> r.warm_wall) rounds in
  let experiments = List.length Experiments.all in
  let e2e, e2e_detail =
    Out.end_to_end ~setups ~walls ~peak_mb:peak ~warm
      ~warm_per_s:(float_of_int (experiments * List.length rounds) /. Sample.sum warm)
      ~warm_cap:50.0
      ~cold:(List.map (fun r -> r.cold_wall) rounds)
      ~cold_cap:50.0
  in
  let layers =
    if not p.Out.trace then []
    else begin
      let count = Metrics.counter_value in
      let fits0 = count "lm.fits" and conv0 = count "lm.converged" in
      let exhausted0 = count "retry.exhausted" in
      Spans.reset ();
      Spans.enabled := true;
      let traced = round (List.length rounds) in
      let fits = count "lm.fits" - fits0 and conv = count "lm.converged" - conv0 in
      let exhausted = count "retry.exhausted" - exhausted0 in
      let spans = Spans.all () in
      let layer_probes = probes ctx in
      Spans.enabled := false;
      let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
      layer_probes
      @ List.map
          (fun id -> ("experiment." ^ id ^ "_s", List.assoc id traced.cold))
          Catalog.experiment_ids
      @ [
          ("fit.lm_fits", float_of_int fits);
          ("fit.lm_converged_ratio", ratio conv fits);
          ("fit.retry_exhausted", float_of_int exhausted);
          ("residual_frac", 1.0 -. (Spans.covered spans /. traced.wall));
          ("trace_overhead_frac", (traced.wall /. Sample.median walls) -. 1.0);
        ]
    end
  in
  let detail =
    [
      ("jobs", Json.Int jobs);
      ("context", Json.String "quick");
      ("context_fingerprint", Json.String (Context.fingerprint ctx));
      ("n_sim", Json.Int ctx.Context.n_sim);
      ("experiments", Json.Int experiments);
      ("rounds", Json.Int (List.length rounds));
    ]
    @ e2e_detail
  in
  { Out.e2e; layers; detail }
