(* Tests for the compact-model fitting layer. *)

module Units = Nmcache_physics.Units
module Tech = Nmcache_device.Tech
module Config = Nmcache_geometry.Config
module Component = Nmcache_geometry.Component
module Cache_model = Nmcache_geometry.Cache_model
module Model = Nmcache_fit.Model
module Fitter = Nmcache_fit.Fitter
module Fitted_cache = Nmcache_fit.Fitted_cache
module Metrics = Nmcache_engine.Metrics

let tech = Tech.bptm65
let a = Units.angstrom
let cfg = Config.make ~size_bytes:(16 * 1024) ~assoc:4 ~block_bytes:64 ()
let circuit = Cache_model.make tech cfg
let fitted = lazy (Fitted_cache.characterize_and_fit circuit)

let test_model_eval_formulas () =
  let leak = { Model.a0 = 1.0; a1 = 2.0; alpha_v = -10.0; a2 = 3.0; alpha_t = -1.0 } in
  let v = Model.eval_leak leak ~vth:0.3 ~tox:(a 12.0) in
  let expected = 1.0 +. (2.0 *. Float.exp (-3.0)) +. (3.0 *. Float.exp (-12.0)) in
  Alcotest.(check bool) "leak formula" true (Float.abs (v -. expected) < 1e-12);
  let delay = { Model.k0 = 1e-12; k1 = 2e-12; kappa_v = 3.0; k2 = 1e-13 } in
  let d = Model.eval_delay delay ~vth:0.4 ~tox:(a 11.0) in
  let expected_d = 1e-12 +. (2e-12 *. Float.exp 1.2) +. (1e-13 *. 11.0) in
  Alcotest.(check bool) "delay formula" true (Float.abs (d -. expected_d) < 1e-24);
  let e = { Model.e0 = 5e-12; e1 = 1e-13 } in
  Alcotest.(check bool) "energy formula" true
    (Float.abs (Model.eval_energy e ~tox:(a 10.0) -. 6e-12) < 1e-24)

let test_fit_synthetic_leak () =
  (* generate samples from a known model and recover it *)
  let truth = { Model.a0 = 1e-4; a1 = 0.5; alpha_v = -25.0; a2 = 2e4; alpha_t = -1.9 } in
  let samples =
    Array.of_list
      (List.concat_map
         (fun vth ->
           List.map
             (fun tox_a ->
               let k = Component.knob ~vth ~tox:(a tox_a) in
               let s =
                 {
                   Component.delay = 1e-10;
                   leak_w = Model.eval_leak truth ~vth ~tox:(a tox_a);
                   dyn_energy = 1e-12;
                   area = 1e-9;
                 }
               in
               (k, s))
             [ 10.0; 11.0; 12.0; 13.0; 14.0 ])
         [ 0.2; 0.275; 0.35; 0.425; 0.5 ])
  in
  let m, q = Fitter.fit_leak samples in
  Alcotest.(check bool) (Printf.sprintf "R2 ~ 1 (got %f)" q.Model.r2) true (q.Model.r2 > 0.9999);
  Alcotest.(check bool) "max rel err < 1%" true (q.Model.max_rel < 0.01);
  (* exponents recovered approximately *)
  Alcotest.(check bool)
    (Printf.sprintf "alpha_v ~ -25 (got %.2f)" m.Model.alpha_v)
    true
    (Float.abs (m.Model.alpha_v +. 25.0) < 1.0);
  Alcotest.(check bool)
    (Printf.sprintf "alpha_t ~ -1.9 (got %.2f)" m.Model.alpha_t)
    true
    (Float.abs (m.Model.alpha_t +. 1.9) < 0.2)

let test_fit_synthetic_delay () =
  let truth = { Model.k0 = 2e-11; k1 = 5e-12; kappa_v = 4.0; k2 = 6e-12 } in
  let samples =
    Array.of_list
      (List.concat_map
         (fun vth ->
           List.map
             (fun tox_a ->
               let k = Component.knob ~vth ~tox:(a tox_a) in
               ( k,
                 {
                   Component.delay = Model.eval_delay truth ~vth ~tox:(a tox_a);
                   leak_w = 1e-3;
                   dyn_energy = 1e-12;
                   area = 1e-9;
                 } ))
             [ 10.0; 12.0; 14.0 ])
         [ 0.2; 0.3; 0.4; 0.5 ])
  in
  let m, q = Fitter.fit_delay samples in
  Alcotest.(check bool) "R2 ~ 1" true (q.Model.r2 > 0.9999);
  Alcotest.(check bool)
    (Printf.sprintf "kappa ~ 4 (got %.2f)" m.Model.kappa_v)
    true
    (Float.abs (m.Model.kappa_v -. 4.0) < 0.3)

let test_fit_validation () =
  Alcotest.(check bool) "too few samples" true
    (try
       ignore (Fitter.fit_leak [||]);
       false
     with Invalid_argument _ -> true)

let test_real_cache_fit_quality () =
  let f = Lazy.force fitted in
  List.iter
    (fun (cm : Fitted_cache.component_model) ->
      let name = Component.kind_name cm.Fitted_cache.kind in
      Alcotest.(check bool)
        (Printf.sprintf "%s leak R2 %.4f > 0.93" name cm.Fitted_cache.leak_quality.Model.r2)
        true
        (cm.Fitted_cache.leak_quality.Model.r2 > 0.93);
      Alcotest.(check bool)
        (Printf.sprintf "%s delay R2 %.4f > 0.93" name cm.Fitted_cache.delay_quality.Model.r2)
        true
        (cm.Fitted_cache.delay_quality.Model.r2 > 0.93))
    (Fitted_cache.components f)

let test_fitted_eval_close_to_exact_off_grid () =
  let f = Lazy.force fitted in
  (* off-grid knobs (not on the 7x5 training lattice) *)
  let knobs =
    [
      Component.uniform (Component.knob ~vth:0.33 ~tox:(a 11.3));
      Component.uniform (Component.knob ~vth:0.27 ~tox:(a 13.1));
      Component.split
        ~cell:(Component.knob ~vth:0.47 ~tox:(a 13.7))
        ~periphery:(Component.knob ~vth:0.21 ~tox:(a 10.4));
    ]
  in
  List.iter
    (fun assignment ->
      let est = Fitted_cache.eval f assignment in
      let exact = Fitted_cache.exact f assignment in
      let leak_err =
        Float.abs (est.Fitted_cache.leak_w -. exact.Cache_model.leak_w)
        /. exact.Cache_model.leak_w
      in
      let delay_err =
        Float.abs (est.Fitted_cache.access_time -. exact.Cache_model.access_time)
        /. exact.Cache_model.access_time
      in
      Alcotest.(check bool) (Printf.sprintf "leak err %.1f%% < 25%%" (100. *. leak_err)) true
        (leak_err < 0.25);
      Alcotest.(check bool)
        (Printf.sprintf "delay err %.1f%% < 12%%" (100. *. delay_err))
        true (delay_err < 0.12))
    knobs

let test_fitted_models_monotone () =
  let f = Lazy.force fitted in
  (* fitted leakage must preserve the physical monotonicity on the grid *)
  List.iter
    (fun kind ->
      let leak vth tox_a = Fitted_cache.leak_of f kind (Component.knob ~vth ~tox:(a tox_a)) in
      Alcotest.(check bool) "dec in vth" true (leak 0.45 12.0 < leak 0.25 12.0);
      Alcotest.(check bool) "dec in tox" true (leak 0.3 13.5 < leak 0.3 10.5);
      let delay vth tox_a = Fitted_cache.delay_of f kind (Component.knob ~vth ~tox:(a tox_a)) in
      Alcotest.(check bool) "delay inc in vth" true (delay 0.45 12.0 > delay 0.25 12.0);
      Alcotest.(check bool) "delay inc in tox" true (delay 0.3 13.5 > delay 0.3 10.5))
    Component.all_kinds

let test_estimate_is_component_sum () =
  let f = Lazy.force fitted in
  let k = Component.knob ~vth:0.31 ~tox:(a 12.2) in
  let est = Fitted_cache.eval f (Component.uniform k) in
  let sum field =
    List.fold_left (fun acc kind -> acc +. field kind) 0.0 Component.all_kinds
  in
  let leak_sum = sum (fun kind -> Fitted_cache.leak_of f kind k) in
  Alcotest.(check bool) "leak sum" true
    (Float.abs (est.Fitted_cache.leak_w -. leak_sum) < 1e-12 *. leak_sum)

let test_worst_quality () =
  let f = Lazy.force fitted in
  let q = Fitted_cache.worst_quality f in
  Alcotest.(check bool) "worst R2 still high" true (q.Model.r2 > 0.9)

(* --- the quick context's L1/L2 fits ---------------------------------- *)

(* every L1 and L2 size the experiments characterise, fitted once *)
let quick_fits =
  lazy
    (let ctx = Core.Context.quick () in
     let configs =
       Array.to_list (Array.map (fun size -> Core.Context.l1_config ctx ~size ()) Core.Context.l1_sizes)
       @ Array.to_list (Array.map (fun size -> Core.Context.l2_config ctx ~size ()) Core.Context.l2_sizes)
     in
     List.map
       (fun config ->
         (config, Fitted_cache.characterize_and_fit (Cache_model.make ctx.Core.Context.tech config)))
       configs)

(* One line per (config, component, model): the parameters as [%h] and,
   for the LM fits, "lm <attempts> <converged attempts> <iterations>
   <residual>" read from the metrics the fitter records — iterations
   and residual summed over attempts.  Each model is refitted from the
   characterisation samples with the registry reset, so the counts
   belong to that fit alone. *)
let pinned_lines () =
  List.concat_map
    (fun (config, f) ->
      let name = Config.describe config in
      List.concat_map
        (fun kind ->
          let samples = Fitted_cache.samples f kind and cm = Fitted_cache.component f kind in
          let line what params stats =
            String.concat " "
              ([ name; Component.kind_name kind; what ] @ List.map (Printf.sprintf "%h") params @ stats)
          in
          let lm model =
            let sum h =
              match Metrics.histogram_summary h with Some s -> s.Metrics.sum | None -> Float.nan
            in
            Printf.sprintf "lm %d %d %.0f %h" (Metrics.counter_value "lm.fits")
              (Metrics.counter_value "lm.converged")
              (sum ("lm." ^ model ^ ".iterations"))
              (sum ("lm." ^ model ^ ".residual"))
          in
          Metrics.reset ();
          let l, _ = Fitter.fit_leak samples in
          let leak =
            line "leak" [ l.Model.a0; l.Model.a1; l.Model.alpha_v; l.Model.a2; l.Model.alpha_t ] [ lm "leak" ]
          in
          Metrics.reset ();
          let d, _ = Fitter.fit_delay samples in
          let delay = line "delay" [ d.Model.k0; d.Model.k1; d.Model.kappa_v; d.Model.k2 ] [ lm "delay" ] in
          let e, _ = Fitter.fit_energy samples in
          let energy = line "energy" [ e.Model.e0; e.Model.e1 ] [] in
          if l <> cm.Fitted_cache.leak || d <> cm.Fitted_cache.delay || e <> cm.Fitted_cache.energy then
            Alcotest.failf "%s %s: refit differs from the pipeline's fit" name (Component.kind_name kind);
          [ leak; delay; energy ])
        Component.all_kinds)
    (Lazy.force quick_fits)

(* fixtures/fits_pinned.txt was written by the solver before its
   batch-model rewrite: the fits must match it bit for bit *)
let test_fits_pinned () =
  let ic = open_in "fixtures/fits_pinned.txt" in
  let pinned =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> List.rev (In_channel.fold_lines (fun acc l -> l :: acc) [] ic))
  in
  Metrics.reset ();
  let got = Fun.protect ~finally:Metrics.reset pinned_lines in
  Alcotest.(check int) "11 configs x 4 components x 3 models" 132 (List.length pinned);
  Alcotest.(check int) "line count" (List.length pinned) (List.length got);
  List.iteri
    (fun i (want, have) -> if want <> have then Alcotest.failf "line %d:\n  pinned %s\n  got    %s" i want have)
    (List.combine pinned got)

(* Physical monotonicity of every fit over its whole characterised box:
   leakage non-increasing and delay non-decreasing in Vth and in Tox,
   every value finite, and the coefficient signs that make it so. *)
let test_fits_physical () =
  let steps = 40 in
  let axis (lo, hi) = Array.init (steps + 1) (fun i -> lo +. ((hi -. lo) *. float_of_int i /. float_of_int steps)) in
  List.iter
    (fun (config, f) ->
      let vths = axis (Fitted_cache.vth_range f) and toxs = axis (Fitted_cache.tox_range f) in
      List.iter
        (fun kind ->
          let where = Printf.sprintf "%s %s" (Config.describe config) (Component.kind_name kind) in
          let cm = Fitted_cache.component f kind in
          let l = cm.Fitted_cache.leak and d = cm.Fitted_cache.delay in
          if not (l.Model.a1 *. l.Model.alpha_v < 0.0 && l.Model.a2 *. l.Model.alpha_t < 0.0) then
            Alcotest.failf "%s: leak terms not decreasing (%a)" where Model.pp_leak l;
          if not (d.Model.k1 *. d.Model.kappa_v > 0.0 && d.Model.k2 > 0.0) then
            Alcotest.failf "%s: delay terms not increasing (%a)" where Model.pp_delay d;
          let table eval =
            Array.map
              (fun vth ->
                Array.map
                  (fun tox ->
                    let v = eval kind (Component.knob ~vth ~tox) in
                    if not (Float.is_finite v) then
                      Alcotest.failf "%s: non-finite at vth=%g tox=%g" where vth tox;
                    v)
                  toxs)
              vths
          in
          let leak = table (Fitted_cache.leak_of f) and delay = table (Fitted_cache.delay_of f) in
          for i = 0 to steps do
            for j = 0 to steps do
              let check what ok = if not ok then Alcotest.failf "%s: %s at grid (%d, %d)" where what i j in
              if i > 0 then begin
                check "leak rises with Vth" (leak.(i).(j) <= leak.(i - 1).(j));
                check "delay falls with Vth" (delay.(i).(j) >= delay.(i - 1).(j))
              end;
              if j > 0 then begin
                check "leak rises with Tox" (leak.(i).(j) <= leak.(i).(j - 1));
                check "delay falls with Tox" (delay.(i).(j) >= delay.(i).(j - 1))
              end
            done
          done)
        Component.all_kinds)
    (Lazy.force quick_fits)

let suite =
  [
    Alcotest.test_case "model formulas" `Quick test_model_eval_formulas;
    Alcotest.test_case "fit synthetic leakage" `Quick test_fit_synthetic_leak;
    Alcotest.test_case "fit synthetic delay" `Quick test_fit_synthetic_delay;
    Alcotest.test_case "fit validation" `Quick test_fit_validation;
    Alcotest.test_case "real cache fit quality" `Quick test_real_cache_fit_quality;
    Alcotest.test_case "off-grid accuracy" `Quick test_fitted_eval_close_to_exact_off_grid;
    Alcotest.test_case "fitted models monotone" `Quick test_fitted_models_monotone;
    Alcotest.test_case "estimate is component sum" `Quick test_estimate_is_component_sum;
    Alcotest.test_case "worst quality" `Quick test_worst_quality;
    Alcotest.test_case "quick L1/L2 fits equal the pinned fixture" `Quick test_fits_pinned;
    Alcotest.test_case "quick L1/L2 fits are physical on a dense grid" `Quick test_fits_physical;
  ]
