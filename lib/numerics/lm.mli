(** Levenberg–Marquardt nonlinear least squares.

    Minimises Σᵢ (f(xᵢ; θ) − yᵢ)² over parameters θ, with Jacobians
    approximated by forward differences.  Sized for the compact-model
    fitting in this project: a handful of parameters, hundreds of
    samples.

    {b Cost contract.}  Each parameter vector is evaluated once: the
    accepted candidate's model values are the next iteration's
    residuals and its Jacobian base, so an iteration makes one batch
    model call per parameter (the Jacobian columns) plus one per
    damping attempt.  The iteration loop allocates nothing: JᵀJ, −Jᵀr
    and the damped solve live in per-fit scratch, and the sums run in
    the order of [Matrix.mul]/[Matrix.mul_vec] on the explicit
    transpose, so the fitted parameters are bit-for-bit those of the
    textbook formulation. *)

type result = {
  params : float array;     (** fitted parameter vector *)
  residual : float;         (** final ‖r‖₂ *)
  iterations : int;         (** LM iterations consumed *)
  converged : bool;         (** true when the relative step or residual
                                improvement dropped below tolerance *)
}

type model = float array -> float array array -> float array -> unit
(** A batch model: [f theta xs out] stores the model value at every
    sample, [out.(i) = f(xs.(i); theta)], for [i] in [0 .. n-1].  It
    must be pure — the same [theta] always yields the same bits — and
    must not keep [theta] or [out], which are reused scratch.  A model
    may cache work keyed on [theta]'s values, for instance one
    [exp(θₖ·x)] column per exponent seen, and may read its own copy of
    the sample inputs instead of [xs]. *)

val pointwise : (float array -> float array -> float) -> model
(** [pointwise g] is the batch model [out.(i) <- g theta xs.(i)] for a
    per-sample model [g]. *)

exception Non_finite of string
(** Raised when samples or initial parameters contain NaN/Inf, or when
    {!fit_robust} cannot produce a finite result from any start.  The
    fit layer maps this to a typed [Non_finite] fault. *)

val fit :
  ?max_iter:int ->
  ?tol:float ->
  ?lambda0:float ->
  ?check:(unit -> unit) ->
  f:model ->
  xs:float array array ->
  ys:float array ->
  init:float array ->
  unit ->
  result
(** [fit ~f ~xs ~ys ~init ()] fits the batch model [f] to the samples
    [(xs.(i), ys.(i))] starting from [init].

    @param max_iter iteration cap (default 200).
    @param tol convergence tolerance on relative residual improvement and
           step size (default 1e-10).
    @param lambda0 initial damping (default 1e-3).
    @param check called at the top of every iteration — a cooperative
           cancellation hook (the engine's deadline poll); it may raise
           to abort the fit, and defaults to a nop.  This keeps the
           numerics layer free of engine dependencies.

    Raises [Invalid_argument] if [xs] and [ys] have different lengths or
    are empty, and {!Non_finite} if any sample or initial parameter is
    NaN/Inf. *)

val fit_robust :
  ?max_iter:int ->
  ?tol:float ->
  ?lambda0:float ->
  ?check:(unit -> unit) ->
  ?restarts:int ->
  ?seed:int64 ->
  f:model ->
  xs:float array array ->
  ys:float array ->
  init:float array ->
  unit ->
  result
(** {!fit} hardened with seeded multi-start: if the first fit converges
    to a finite result it is returned unchanged (so healthy pipelines
    are byte-for-byte unaffected); otherwise up to [restarts] (default
    4) retries run from deterministically perturbed copies of [init]
    (each coordinate scaled by U(0.5, 1.5) plus a small offset, drawn
    from a generator seeded with [seed]) and the best finite-residual
    result wins, stopping early at the first converged one.  A retry
    that hits [Linsolve.Singular] counts as a failed start.  Raises
    {!Non_finite} when no start produces a finite result. *)
