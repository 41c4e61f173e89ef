(** Linear-system and least-squares solvers for small dense systems. *)

exception Singular
(** Raised when a system is (numerically) singular. *)

val solve : Matrix.t -> float array -> float array
(** [solve a b] solves the square system [a · x = b] by Gaussian
    elimination with partial pivoting.  Raises {!Singular} if a pivot is
    numerically zero, and [Invalid_argument] on a shape mismatch. *)

val solve_in_place : Matrix.t -> float array -> unit
(** [solve_in_place a b] is {!solve} without allocating: it overwrites
    [b] with the solution and [a] with its eliminated form, performing
    exactly the floating-point operations {!solve} performs.  Raises
    {!Singular} and [Invalid_argument] like {!solve}. *)

val lstsq : Matrix.t -> float array -> float array
(** [lstsq a b] solves the overdetermined system [a · x ≈ b] in the
    least-squares sense via the normal equations (with a tiny Tikhonov
    ridge for conditioning).  [a] must have at least as many rows as
    columns.  Raises {!Singular} when the columns of [a] are linearly
    dependent beyond what the ridge can absorb. *)

val lstsq_weighted : Matrix.t -> float array -> weights:float array -> float array
(** [lstsq_weighted a b ~weights] is weighted least squares: it minimises
    Σ w_i (a_i·x − b_i)².  All weights must be non-negative. *)

val invert : Matrix.t -> Matrix.t
(** [invert a] is the inverse of square matrix [a].  Raises {!Singular}
    when [a] is not invertible. *)

val residual_norm : Matrix.t -> float array -> float array -> float
(** [residual_norm a x b] is ‖a·x − b‖₂. *)
