(* Frozen reference for the Levenberg–Marquardt differential property:
   the per-sample solver as it stood before the batch-model rewrite,
   including its Gaussian elimination.  It re-evaluates the model for
   the residuals, for the Jacobian base and for every column, and forms
   JᵀJ and −Jᵀr with explicit transposes — the operations the rewrite
   must reproduce bit for bit.  Test-only; do not optimise. *)

module Matrix = Nmcache_numerics.Matrix
module Linsolve = Nmcache_numerics.Linsolve
module Lm = Nmcache_numerics.Lm
module Rng = Nmcache_numerics.Rng

let solve a b =
  let n = Matrix.rows a in
  let m = Matrix.copy a in
  let x = Array.copy b in
  for col = 0 to n - 1 do
    let pivot = ref col in
    for r = col + 1 to n - 1 do
      if Float.abs (Matrix.get m r col) > Float.abs (Matrix.get m !pivot col) then
        pivot := r
    done;
    let p = !pivot in
    if Float.abs (Matrix.get m p col) < 1e-300 then raise Linsolve.Singular;
    if p <> col then begin
      for j = 0 to n - 1 do
        let t = Matrix.get m col j in
        Matrix.set m col j (Matrix.get m p j);
        Matrix.set m p j t
      done;
      let t = x.(col) in
      x.(col) <- x.(p);
      x.(p) <- t
    end;
    let d = Matrix.get m col col in
    for r = col + 1 to n - 1 do
      let f = Matrix.get m r col /. d in
      if f <> 0.0 then begin
        for j = col to n - 1 do
          Matrix.set m r j (Matrix.get m r j -. (f *. Matrix.get m col j))
        done;
        x.(r) <- x.(r) -. (f *. x.(col))
      end
    done
  done;
  for i = n - 1 downto 0 do
    let acc = ref x.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (Matrix.get m i j *. x.(j))
    done;
    x.(i) <- !acc /. Matrix.get m i i
  done;
  x

let check_finite ~what arr =
  Array.iter
    (fun v ->
      if not (Float.is_finite v) then
        raise (Lm.Non_finite (Printf.sprintf "Lm.fit: non-finite %s" what)))
    arr

let residuals ~f ~xs ~ys theta =
  Array.init (Array.length xs) (fun i -> f theta xs.(i) -. ys.(i))

let norm2 r =
  let acc = ref 0.0 in
  Array.iter (fun v -> acc := !acc +. (v *. v)) r;
  Float.sqrt !acc

(* Forward-difference Jacobian of the residual vector wrt theta. *)
let jacobian ~f ~xs theta =
  let n = Array.length xs and p = Array.length theta in
  let j = Matrix.create ~rows:n ~cols:p in
  let base = Array.init n (fun i -> f theta xs.(i)) in
  for k = 0 to p - 1 do
    let h = Float.max 1e-8 (1e-6 *. Float.abs theta.(k)) in
    let theta' = Array.copy theta in
    theta'.(k) <- theta'.(k) +. h;
    for i = 0 to n - 1 do
      Matrix.set j i k ((f theta' xs.(i) -. base.(i)) /. h)
    done
  done;
  j

let fit ?(max_iter = 200) ?(tol = 1e-10) ?(lambda0 = 1e-3) ?(check = fun () -> ()) ~f ~xs
    ~ys ~init () =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Lm.fit: no samples";
  if Array.length ys <> n then invalid_arg "Lm.fit: xs/ys length mismatch";
  let p = Array.length init in
  if p = 0 then invalid_arg "Lm.fit: empty parameter vector";
  (* NaN/Inf guards: a poisoned sample makes every residual, Jacobian
     and step non-finite — fail loudly up front instead of spinning the
     damping loop on garbage *)
  Array.iter (check_finite ~what:"sample input (xs)") xs;
  check_finite ~what:"sample value (ys)" ys;
  check_finite ~what:"initial parameter" init;
  let theta = ref (Array.copy init) in
  let lambda = ref lambda0 in
  let cost = ref (norm2 (residuals ~f ~xs ~ys !theta)) in
  let iterations = ref 0 in
  let converged = ref false in
  (try
     while (not !converged) && !iterations < max_iter do
       (* cooperative cancellation seam: the engine's deadline poll
          rides in here without this library depending on it *)
       check ();
       incr iterations;
       let r = residuals ~f ~xs ~ys !theta in
       let j = jacobian ~f ~xs !theta in
       let jt = Matrix.transpose j in
       let jtj = Matrix.mul jt j in
       let jtr = Matrix.mul_vec jt r in
       let neg_jtr = Array.map (fun v -> -.v) jtr in
       (* Try increasing damping until the step reduces the cost. *)
       let rec attempt tries =
         if tries > 30 then raise Exit;
         let step =
           try Some (solve (Matrix.add_diagonal jtj !lambda) neg_jtr)
           with Linsolve.Singular -> None
         in
         match step with
         | None ->
           lambda := !lambda *. 10.0;
           attempt (tries + 1)
         | Some dx ->
           let cand = Array.mapi (fun i v -> v +. dx.(i)) !theta in
           let c = norm2 (residuals ~f ~xs ~ys cand) in
           if Float.is_nan c || c >= !cost then begin
             lambda := !lambda *. 10.0;
             attempt (tries + 1)
           end
           else begin
             let step_norm = norm2 dx in
             let improvement = (!cost -. c) /. Float.max !cost 1e-300 in
             theta := cand;
             cost := c;
             lambda := Float.max (!lambda /. 10.0) 1e-12;
             if improvement < tol || step_norm < tol then converged := true
           end
       in
       attempt 0
     done
   with Exit ->
     (* 30 damping escalations without an improving step: the solver is
        stalled at a local minimum it cannot leave — accepted, like a
        tolerance-triggered stop *)
     converged := true);
  { Lm.params = !theta; residual = !cost; iterations = !iterations; converged = !converged }

let finite_result (r : Lm.result) =
  Float.is_finite r.residual && Array.for_all Float.is_finite r.params

let fit_robust ?max_iter ?tol ?lambda0 ?check ?(restarts = 4) ?(seed = 0x5EEDL) ~f ~xs
    ~ys ~init () =
  let run init = fit ?max_iter ?tol ?lambda0 ?check ~f ~xs ~ys ~init () in
  let r0 = run init in
  if r0.converged && finite_result r0 then r0
  else begin
    (* seeded multi-start: perturb the initial guess and keep the best
       finite residual.  The draws depend only on (seed, restart
       index), so retries are exactly reproducible across runs and
       --jobs settings. *)
    let rng = Rng.create ~seed in
    let best = ref (if finite_result r0 then Some r0 else None) in
    let better (r : Lm.result) =
      match !best with
      | Some b when b.residual <= r.residual -> false
      | _ -> true
    in
    let converged_already () =
      match !best with Some b -> b.converged | None -> false
    in
    (try
       for _ = 1 to restarts do
         if converged_already () then raise Exit;
         let init' =
           Array.map
             (fun v ->
               let scale = 1.0 +. Rng.float_range rng ~lo:(-0.5) ~hi:0.5 in
               let offset = Rng.float_range rng ~lo:(-1e-3) ~hi:1e-3 in
               (v *. scale) +. offset)
             init
         in
         match run init' with
         | r -> if finite_result r && better r then best := Some r
         | exception Linsolve.Singular -> ()
       done
     with Exit -> ());
    match !best with
    | Some r -> r
    | None -> raise (Lm.Non_finite "Lm.fit_robust: every start produced non-finite results")
  end
