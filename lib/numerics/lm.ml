type result = {
  params : float array;
  residual : float;
  iterations : int;
  converged : bool;
}

exception Non_finite of string

type model = float array -> float array array -> float array -> unit

let pointwise f theta xs out =
  for i = 0 to Array.length xs - 1 do
    out.(i) <- f theta xs.(i)
  done

let check_finite ~what arr =
  Array.iter
    (fun v ->
      if not (Float.is_finite v) then
        raise (Non_finite (Printf.sprintf "Lm.fit: non-finite %s" what)))
    arr

let[@inline] norm2 r =
  let acc = ref 0.0 in
  for i = 0 to Array.length r - 1 do
    let v = Array.unsafe_get r i in
    acc := !acc +. (v *. v)
  done;
  Float.sqrt !acc

(* ‖vals − ys‖₂ in sample order: the residual vector is never stored *)
let[@inline] residual_norm vals ys =
  let acc = ref 0.0 in
  for i = 0 to Array.length ys - 1 do
    let v = Array.unsafe_get vals i -. Array.unsafe_get ys i in
    acc := !acc +. (v *. v)
  done;
  Float.sqrt !acc

(* Per-fit scratch: every buffer an iteration touches, sized once, so
   the iteration loop itself never allocates. *)
type scratch = {
  mutable theta : float array;  (* current parameters *)
  mutable vals : float array;   (* model values at [theta] *)
  mutable cand : float array;   (* candidate parameters *)
  mutable cand_vals : float array;
  probe : float array;          (* theta with one coordinate nudged *)
  probe_vals : float array;
  jac : float array;            (* forward-difference Jacobian, column k at k·n *)
  jtj : float array;            (* JᵀJ, row-major p × p *)
  damped : Matrix.t;            (* JᵀJ + λI, destroyed by each solve *)
  neg_jtr : float array;        (* −Jᵀr *)
  dx : float array;             (* step; the solve's right-hand side *)
}

let scratch ~n ~p init =
  {
    theta = Array.copy init;
    vals = Array.make n 0.0;
    cand = Array.make p 0.0;
    cand_vals = Array.make n 0.0;
    probe = Array.make p 0.0;
    probe_vals = Array.make n 0.0;
    jac = Array.make (n * p) 0.0;
    jtj = Array.make (p * p) 0.0;
    damped = Matrix.create ~rows:p ~cols:p;
    neg_jtr = Array.make p 0.0;
    dx = Array.make p 0.0;
  }

(* Forward-difference Jacobian of the residual vector wrt theta, then
   the normal equations JᵀJ and −Jᵀr.  The base point's values are
   [s.vals], evaluated when theta was accepted.  Sums run in the order
   of [Matrix.mul (transpose J) J] (zero entries of the left factor
   skipped) and of [Matrix.mul_vec (transpose J) r]. *)
let normal_equations s ~f ~xs ~ys ~n ~p =
  let jac = s.jac and vals = s.vals and theta = s.theta in
  for k = 0 to p - 1 do
    let h = Float.max 1e-8 (1e-6 *. Float.abs theta.(k)) in
    Array.blit theta 0 s.probe 0 p;
    s.probe.(k) <- theta.(k) +. h;
    f s.probe xs s.probe_vals;
    let base = k * n in
    for i = 0 to n - 1 do
      Array.unsafe_set jac (base + i)
        ((Array.unsafe_get s.probe_vals i -. Array.unsafe_get vals i) /. h)
    done
  done;
  for i = 0 to p - 1 do
    let ci = i * n in
    for j = 0 to p - 1 do
      let cj = j * n in
      let acc = ref 0.0 in
      for k = 0 to n - 1 do
        let aki = Array.unsafe_get jac (ci + k) in
        if aki <> 0.0 then acc := !acc +. (aki *. Array.unsafe_get jac (cj + k))
      done;
      s.jtj.((i * p) + j) <- !acc
    done;
    let acc = ref 0.0 in
    for k = 0 to n - 1 do
      acc :=
        !acc
        +. (Array.unsafe_get jac (ci + k) *. (Array.unsafe_get vals k -. Array.unsafe_get ys k))
    done;
    s.neg_jtr.(i) <- -. !acc
  done

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
  let s = scratch ~n ~p init in
  f s.theta xs s.vals;
  let lambda = ref lambda0 in
  let cost = ref (residual_norm s.vals ys) in
  let iterations = ref 0 in
  let converged = ref false in
  (try
     while (not !converged) && !iterations < max_iter do
       (* cooperative cancellation seam: the engine's deadline poll
          rides in here without this library depending on it *)
       check ();
       incr iterations;
       normal_equations s ~f ~xs ~ys ~n ~p;
       (* Try increasing damping until the step reduces the cost. *)
       let tries = ref 0 and stepped = ref false in
       while not !stepped do
         if !tries > 30 then raise Exit;
         let damped = Matrix.data s.damped in
         Array.blit s.jtj 0 damped 0 (p * p);
         for i = 0 to p - 1 do
           damped.((i * p) + i) <- s.jtj.((i * p) + i) +. !lambda
         done;
         Array.blit s.neg_jtr 0 s.dx 0 p;
         match Linsolve.solve_in_place s.damped s.dx with
         | exception Linsolve.Singular ->
           lambda := !lambda *. 10.0;
           incr tries
         | () ->
           for i = 0 to p - 1 do
             s.cand.(i) <- s.theta.(i) +. s.dx.(i)
           done;
           f s.cand xs s.cand_vals;
           let c = residual_norm s.cand_vals ys in
           if Float.is_nan c || c >= !cost then begin
             lambda := !lambda *. 10.0;
             incr tries
           end
           else begin
             let step_norm = norm2 s.dx in
             let improvement = (!cost -. c) /. Float.max !cost 1e-300 in
             (* the accepted candidate's values are the next
                iteration's residuals and Jacobian base *)
             let theta = s.theta and vals = s.vals in
             s.theta <- s.cand;
             s.vals <- s.cand_vals;
             s.cand <- theta;
             s.cand_vals <- vals;
             cost := c;
             lambda := Float.max (!lambda /. 10.0) 1e-12;
             if improvement < tol || step_norm < tol then converged := true;
             stepped := true
           end
       done
     done
   with Exit ->
     (* 30 damping escalations without an improving step: the solver is
        stalled at a local minimum it cannot leave — accepted, like a
        tolerance-triggered stop *)
     converged := true);
  { params = s.theta; residual = !cost; iterations = !iterations; converged = !converged }

let finite_result r =
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
    let better (r : result) =
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
    | None -> raise (Non_finite "Lm.fit_robust: every start produced non-finite results")
  end
