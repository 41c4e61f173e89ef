module Units = Nmcache_physics.Units
module Component = Nmcache_geometry.Component
module Matrix = Nmcache_numerics.Matrix
module Linsolve = Nmcache_numerics.Linsolve
module Lm = Nmcache_numerics.Lm
module Stats = Nmcache_numerics.Stats
module Minimize = Nmcache_numerics.Minimize
module Metrics = Nmcache_engine.Metrics
module Fault = Nmcache_engine.Fault
module Faultpoint = Nmcache_engine.Faultpoint
module Retry = Nmcache_engine.Retry
module Deadline = Nmcache_engine.Deadline

type samples = (Component.knob * Component.summary) array

(* A deterministic fingerprint of a sample set: enough to tell fits of
   different components/configs apart in fault-point keys and fault
   details, stable across runs and --jobs settings. *)
let samples_key (samples : samples) =
  let n = Array.length samples in
  if n = 0 then "n=0"
  else
    let (k0 : Component.knob), (s0 : Component.summary) = samples.(0) in
    let _, (sn : Component.summary) = samples.(n - 1) in
    Printf.sprintf "n=%d:vth0=%.3f:tox0=%.1f:leak0=%.4e:delayN=%.4e" n
      k0.Component.vth
      (Units.to_angstrom k0.Component.tox)
      s0.Component.leak_w sn.Component.delay

(* Fault boundary for one compact-model fit, now a retry boundary: the
   armed fault point fires first (chaos harness — per-attempt, so
   transient arms recover under retry), then numeric failures escaping
   the solvers are mapped into typed faults instead of raw exceptions.
   Retryable faults (injected, fit_diverged) get up to the policy's
   attempt budget with deterministic backoff before escaping. *)
let fit_boundary ~stage ~key f =
  Retry.run ~stage ~key (fun ~attempt ~last ->
      Faultpoint.hit ~attempt ~point:stage ~key ();
      try f ~attempt ~last with
      | Linsolve.Singular ->
        Fault.error ~kind:Fault.Singular_system ~stage
          ("linear system singular for samples " ^ key)
      | Lm.Non_finite msg ->
        Fault.error ~kind:Fault.Non_finite ~stage
          (Printf.sprintf "%s (samples %s)" msg key))

let check_model_finite ~stage ~key params =
  if not (List.for_all Float.is_finite params) then
    Fault.error ~kind:Fault.Non_finite ~stage
      ("fitted parameters non-finite for samples " ^ key)

(* One metrics sample per LM *attempt*: iteration count and final
   residual, labelled by which compact model was being fitted.  Fits
   are coarse (milliseconds), so the registry update is noise.  With
   retries armed, [lm.fits] counts attempts, not fit_leak/fit_delay
   calls. *)
let record_attempt ~model (result : Lm.result) =
  Metrics.incr "lm.fits";
  if result.Lm.converged then Metrics.incr "lm.converged";
  Metrics.observe "lm.iterations" (float_of_int result.Lm.iterations);
  Metrics.observe ("lm." ^ model ^ ".iterations") (float_of_int result.Lm.iterations);
  Metrics.observe ("lm." ^ model ^ ".residual") result.Lm.residual

let record_quality ~model (quality : Model.quality) =
  Metrics.observe ("fit." ^ model ^ ".r2") quality.Model.r2;
  Metrics.observe ("fit." ^ model ^ ".rms_rel") quality.Model.rms_rel

(* multi-start seed per retry attempt: attempt 1 keeps the canonical
   seed, later attempts shift it so each retry actually explores new
   starts *)
let retry_seed attempt = Int64.add 0x5EEDL (Int64.of_int (attempt - 1))

(* Divergence policy at the retry boundary.  A fit still unconverged
   after its internal multi-starts raises Fit_diverged — the retry
   boundary re-fits with a shifted multi-start seed, and exhaustion is
   counted as exhaustion (never as a recovery).  The first attempt's
   result is stashed so the caller can degrade gracefully when every
   attempt diverges: the *canonical first-attempt* model is recorded
   as a Fit_diverged casualty and returned, making a run whose retries
   never converge byte-identical (models, fault details, CSVs) to a
   run with retries disabled.  The raised detail quotes the canonical
   result for the same reason. *)
let settle_lm ~model ~key ~attempt ~first (result : Lm.result) =
  if result.Lm.converged then result
  else begin
    if attempt = 1 then first := Some result;
    let canonical = match !first with Some r -> r | None -> result in
    Fault.error ~kind:Fault.Fit_diverged ~stage:("fit." ^ model)
      (Printf.sprintf "unconverged after %d iterations, residual %.3e (samples %s)"
         canonical.Lm.iterations canonical.Lm.residual key)
  end

let unpack samples field =
  Array.map
    (fun ((k : Component.knob), (s : Component.summary)) ->
      (k.Component.vth, Units.to_angstrom k.Component.tox, field s))
    samples

(* Relative-error weights: leakage spans decades, and the optimiser
   cares about being right everywhere on the grid, not just at the
   leaky corner. *)
let weights ys = Array.map (fun y -> 1.0 /. Float.max (y *. y) 1e-60) ys

let quality_of ~actual ~predicted =
  {
    Model.r2 = Stats.r_squared ~actual ~predicted;
    max_rel = Stats.max_rel_error ~actual ~predicted;
    rms_rel = Stats.rms_rel_error ~actual ~predicted;
  }

(* A sample column as its distinct values.  The characterisation
   lattice repeats each Vth across the Tox steps and vice versa, so
   exp (alpha · x) costs one [exp] per distinct value, not per sample;
   equal inputs give equal bits, so the column is unchanged. *)
type levels = {
  values : float array;       (* distinct values *)
  level : int array;          (* sample i holds values.(level.(i)) *)
  exps : float array;         (* scratch: exp (alpha · values.(j)) *)
}

let levels x =
  let index = Hashtbl.create 8 in
  let level =
    Array.map
      (fun v ->
        match Hashtbl.find_opt index v with
        | Some j -> j
        | None ->
          let j = Hashtbl.length index in
          Hashtbl.add index v j;
          j)
      x
  in
  let values = Array.make (Hashtbl.length index) 0.0 in
  Array.iteri (fun i j -> values.(j) <- x.(i)) level;
  { values; level; exps = Array.make (Array.length values) 0.0 }

(* col.(i) <- exp (alpha · x.(i)) for alpha = alphas.(k), read here
   rather than passed as a float, which would box it *)
let fill_exp lv alphas k col =
  let alpha = alphas.(k) in
  for j = 0 to Array.length lv.values - 1 do
    Array.unsafe_set lv.exps j (Float.exp (alpha *. Array.unsafe_get lv.values j))
  done;
  for i = 0 to Array.length lv.level - 1 do
    Array.unsafe_set col i (Array.unsafe_get lv.exps (Array.unsafe_get lv.level i))
  done

(* exp (alpha · x.(i)) for every exponent of a profile grid, one
   column each *)
let exp_table x alphas =
  let lv = levels x in
  Array.init (Array.length alphas) (fun k ->
      let col = Array.make (Array.length x) 0.0 in
      fill_exp lv alphas k col;
      col)

(* exp (alpha · x.(i)) for the two exponents used last: a Jacobian
   nudges one exponent and then returns to the base point, so only a
   changed exponent costs a column of [exp] *)
type exp_column = {
  lv : levels;
  alphas : float array;       (* exponent of each slot; nan = empty *)
  cols : float array array;
  mutable recent : int;       (* slot used last *)
}

let exp_column x =
  {
    lv = levels x;
    alphas = [| Float.nan; Float.nan |];
    cols = Array.init 2 (fun _ -> Array.make (Array.length x) 0.0);
    recent = 0;
  }

(* the column for exponent [theta.(k)] *)
let exp_of c theta k =
  let alpha = theta.(k) in
  let slot =
    if c.alphas.(c.recent) = alpha then c.recent
    else
      let other = 1 - c.recent in
      if c.alphas.(other) <> alpha then begin
        c.alphas.(other) <- alpha;
        fill_exp c.lv c.alphas other c.cols.(other)
      end;
      other
  in
  c.recent <- slot;
  c.cols.(slot)

(* The profile's linear fit for fixed exponents: weighted least squares
   on the rows [1; b1.(i); b2.(i)] held in [a] (column 0 preset to 1),
   scored by the summed squared relative error. *)
let linear_fit a ~b1 ~b2 ~ys ~w =
  let rows = Matrix.data a in
  for i = 0 to Array.length ys - 1 do
    rows.((3 * i) + 1) <- b1.(i);
    rows.((3 * i) + 2) <- b2.(i)
  done;
  let coef = Linsolve.lstsq_weighted a ys ~weights:w in
  let rel_err = ref 0.0 in
  for i = 0 to Array.length ys - 1 do
    let y = ys.(i) in
    let predict = coef.(0) +. (coef.(1) *. b1.(i)) +. (coef.(2) *. b2.(i)) in
    let e = (predict -. y) /. Float.max (Float.abs y) 1e-30 in
    rel_err := !rel_err +. (e *. e)
  done;
  (coef, !rel_err)

let design_matrix n = Matrix.of_rows (Array.make n [| 1.0; 0.0; 0.0 |])

(* Sample columns of one fit.  LM runs on relative residuals: every
   model value is divided by [denom.(i)] = max (|y|, 1e-30) and fitted
   to 1. *)
type columns = {
  vth : float array;
  tox : float array;
  ys : float array;
  denom : float array;
  xs : float array array;     (* rows [vth; tox; y], for Lm's input checks *)
}

let columns pts =
  {
    vth = Array.map (fun (v, _, _) -> v) pts;
    tox = Array.map (fun (_, x, _) -> x) pts;
    ys = Array.map (fun (_, _, y) -> y) pts;
    denom = Array.map (fun (_, _, y) -> Float.max (Float.abs y) 1e-30) pts;
    xs = Array.map (fun (v, x, y) -> [| v; x; y |]) pts;
  }

let ones c = Array.map (fun _ -> 1.0) c.ys

(* --- leakage ------------------------------------------------------- *)

(* P = A0 + A1·exp(a1·Vth) + A2·exp(a2·Tox), relative: θ = (A0, A1, a1, A2, a2) *)
let leak_model c =
  let ev = exp_column c.vth and et = exp_column c.tox in
  fun theta _ out ->
    let cv = exp_of ev theta 2 and ct = exp_of et theta 4 in
    let t0 = theta.(0) and t1 = theta.(1) and t3 = theta.(3) in
    for i = 0 to Array.length out - 1 do
      out.(i) <- (t0 +. (t1 *. cv.(i)) +. (t3 *. ct.(i))) /. c.denom.(i)
    done

let fit_leak samples =
  if Array.length samples < 6 then invalid_arg "Fitter.fit_leak: too few samples";
  let key = samples_key samples in
  let pts = unpack samples (fun s -> s.Component.leak_w) in
  let c = columns pts in
  (* the exponent profile depends only on the samples — computed once
     and shared across retry attempts (lazy memoises exceptions too,
     and a Singular profile is not retryable anyway).  For fixed
     exponents the model is linear in (A0, A1, A2). *)
  let profile =
    lazy
      ((* profile the two exponents on a coarse grid *)
       let best = ref None in
       let alpha_vs = Minimize.linspace ~lo:(-40.0) ~hi:(-5.0) ~steps:35 in
       let alpha_ts = Minimize.linspace ~lo:(-2.4) ~hi:(-0.3) ~steps:21 in
       let ev = exp_table c.vth alpha_vs and et = exp_table c.tox alpha_ts in
       let a = design_matrix (Array.length pts) and w = weights c.ys in
       Array.iteri
         (fun iv alpha_v ->
           Array.iteri
             (fun it alpha_t ->
               let coef, err = linear_fit a ~b1:ev.(iv) ~b2:et.(it) ~ys:c.ys ~w in
               match !best with
               | Some (_, _, _, e) when e <= err -> ()
               | _ -> best := Some (coef, alpha_v, alpha_t, err))
             alpha_ts)
         alpha_vs;
       match !best with Some b -> b | None -> assert false)
  in
  (* shared across attempts too: its exp columns are keyed by value *)
  let f = leak_model c in
  let first = ref None in
  let finish (result : Lm.result) =
    let theta = result.Lm.params in
    check_model_finite ~stage:"fit.leak" ~key (Array.to_list theta);
    let m =
      {
        Model.a0 = theta.(0);
        a1 = theta.(1);
        alpha_v = theta.(2);
        a2 = theta.(3);
        alpha_t = theta.(4);
      }
    in
    let predicted =
      Array.map
        (fun ((k : Component.knob), _) ->
          Model.eval_leak m ~vth:k.Component.vth ~tox:k.Component.tox)
        samples
    in
    let quality = quality_of ~actual:c.ys ~predicted in
    record_quality ~model:"leak" quality;
    (m, quality)
  in
  try
    fit_boundary ~stage:"fit.leak" ~key @@ fun ~attempt ~last:_ ->
    let coef, alpha_v, alpha_t, _ = Lazy.force profile in
    (* LM refinement on all five parameters, relative residuals *)
    let init = [| coef.(0); coef.(1); alpha_v; coef.(2); alpha_t |] in
    let result =
      Lm.fit_robust
        ~check:(fun () -> Deadline.poll ~stage:"fit.leak")
        ~seed:(retry_seed attempt) ~f ~xs:c.xs ~ys:(ones c) ~init ()
    in
    record_attempt ~model:"leak" result;
    finish (settle_lm ~model:"leak" ~key ~attempt ~first result)
  with Fault.Fault ({ kind = Fault.Fit_diverged; _ } as fault) when !first <> None ->
    (* every attempt diverged: degrade, don't fail — record the
       casualty and return the canonical first-attempt model *)
    Fault.record fault;
    finish (match !first with Some r -> r | None -> assert false)

let quality_leak m samples =
  let actual = Array.map (fun (_, (s : Component.summary)) -> s.Component.leak_w) samples in
  let predicted =
    Array.map
      (fun ((k : Component.knob), _) ->
        Model.eval_leak m ~vth:k.Component.vth ~tox:k.Component.tox)
      samples
  in
  quality_of ~actual ~predicted

(* --- delay --------------------------------------------------------- *)

(* T = k0 + k1·exp(k3·Vth) + k2·Tox, relative: θ = (k0, k1, k3, k2) *)
let delay_model c =
  let ev = exp_column c.vth in
  fun theta _ out ->
    let cv = exp_of ev theta 2 in
    let t0 = theta.(0) and t1 = theta.(1) and t3 = theta.(3) in
    for i = 0 to Array.length out - 1 do
      out.(i) <- (t0 +. (t1 *. cv.(i)) +. (t3 *. c.tox.(i))) /. c.denom.(i)
    done

let fit_delay samples =
  if Array.length samples < 5 then invalid_arg "Fitter.fit_delay: too few samples";
  let key = samples_key samples in
  let pts = unpack samples (fun s -> s.Component.delay) in
  let c = columns pts in
  let profile =
    lazy
      (let best = ref None in
       let kappas = Minimize.linspace ~lo:0.2 ~hi:10.0 ~steps:49 in
       let ev = exp_table c.vth kappas in
       let a = design_matrix (Array.length pts) and w = weights c.ys in
       Array.iteri
         (fun iv kappa_v ->
           let coef, err = linear_fit a ~b1:ev.(iv) ~b2:c.tox ~ys:c.ys ~w in
           match !best with
           | Some (_, _, e) when e <= err -> ()
           | _ -> best := Some (coef, kappa_v, err))
         kappas;
       match !best with Some b -> b | None -> assert false)
  in
  let f = delay_model c in
  let first = ref None in
  let finish (result : Lm.result) =
    let theta = result.Lm.params in
    check_model_finite ~stage:"fit.delay" ~key (Array.to_list theta);
    let m = { Model.k0 = theta.(0); k1 = theta.(1); kappa_v = theta.(2); k2 = theta.(3) } in
    let predicted =
      Array.map
        (fun ((k : Component.knob), _) ->
          Model.eval_delay m ~vth:k.Component.vth ~tox:k.Component.tox)
        samples
    in
    let quality = quality_of ~actual:c.ys ~predicted in
    record_quality ~model:"delay" quality;
    (m, quality)
  in
  try
    fit_boundary ~stage:"fit.delay" ~key @@ fun ~attempt ~last:_ ->
    let coef, kappa_v, _ = Lazy.force profile in
    let init = [| coef.(0); coef.(1); kappa_v; coef.(2) |] in
    let result =
      Lm.fit_robust
        ~check:(fun () -> Deadline.poll ~stage:"fit.delay")
        ~seed:(retry_seed attempt) ~f ~xs:c.xs ~ys:(ones c) ~init ()
    in
    record_attempt ~model:"delay" result;
    finish (settle_lm ~model:"delay" ~key ~attempt ~first result)
  with Fault.Fault ({ kind = Fault.Fit_diverged; _ } as fault) when !first <> None ->
    Fault.record fault;
    finish (match !first with Some r -> r | None -> assert false)

let quality_delay m samples =
  let actual = Array.map (fun (_, (s : Component.summary)) -> s.Component.delay) samples in
  let predicted =
    Array.map
      (fun ((k : Component.knob), _) ->
        Model.eval_delay m ~vth:k.Component.vth ~tox:k.Component.tox)
      samples
  in
  quality_of ~actual ~predicted

(* --- dynamic energy ------------------------------------------------ *)

let fit_energy samples =
  if Array.length samples < 2 then invalid_arg "Fitter.fit_energy: too few samples";
  let key = samples_key samples in
  fit_boundary ~stage:"fit.energy" ~key @@ fun ~attempt:_ ~last:_ ->
  let pts = unpack samples (fun s -> s.Component.dyn_energy) in
  let rows = Array.map (fun (_, x, _) -> [| 1.0; x |]) pts in
  let ys = Array.map (fun (_, _, y) -> y) pts in
  let coef = Linsolve.lstsq (Matrix.of_rows rows) ys in
  check_model_finite ~stage:"fit.energy" ~key (Array.to_list coef);
  let m = { Model.e0 = coef.(0); e1 = coef.(1) } in
  let predicted =
    Array.map
      (fun ((k : Component.knob), _) -> Model.eval_energy m ~tox:k.Component.tox)
      samples
  in
  let quality = quality_of ~actual:ys ~predicted in
  Metrics.observe "fit.energy.r2" quality.Model.r2;
  (m, quality)
