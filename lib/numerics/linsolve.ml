exception Singular

(* Gaussian elimination with partial pivoting, in place: [m] is
   overwritten by its reduced form and [x] by the solution.  Shapes are
   validated once up front; the loops then index the row-major storage
   unchecked and inline (a helper closure would box every element it
   returns). *)
let solve_in_place m x =
  let n = Matrix.rows m in
  if Matrix.cols m <> n then invalid_arg "Linsolve.solve: matrix not square";
  if Array.length x <> n then invalid_arg "Linsolve.solve: rhs length mismatch";
  let a = Matrix.data m in
  for col = 0 to n - 1 do
    (* pivot selection *)
    let pivot = ref col in
    for r = col + 1 to n - 1 do
      if
        Float.abs (Array.unsafe_get a ((r * n) + col))
        > Float.abs (Array.unsafe_get a ((!pivot * n) + col))
      then pivot := r
    done;
    let p = !pivot in
    if Float.abs (Array.unsafe_get a ((p * n) + col)) < 1e-300 then raise Singular;
    if p <> col then begin
      for j = 0 to n - 1 do
        let t = Array.unsafe_get a ((col * n) + j) in
        Array.unsafe_set a ((col * n) + j) (Array.unsafe_get a ((p * n) + j));
        Array.unsafe_set a ((p * n) + j) t
      done;
      let t = Array.unsafe_get x col in
      Array.unsafe_set x col (Array.unsafe_get x p);
      Array.unsafe_set x p t
    end;
    let d = Array.unsafe_get a ((col * n) + col) in
    for r = col + 1 to n - 1 do
      let f = Array.unsafe_get a ((r * n) + col) /. d in
      if f <> 0.0 then begin
        for j = col to n - 1 do
          Array.unsafe_set a ((r * n) + j)
            (Array.unsafe_get a ((r * n) + j) -. (f *. Array.unsafe_get a ((col * n) + j)))
        done;
        Array.unsafe_set x r (Array.unsafe_get x r -. (f *. Array.unsafe_get x col))
      end
    done
  done;
  (* back substitution *)
  for i = n - 1 downto 0 do
    let acc = ref (Array.unsafe_get x i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (Array.unsafe_get a ((i * n) + j) *. Array.unsafe_get x j)
    done;
    Array.unsafe_set x i (!acc /. Array.unsafe_get a ((i * n) + i))
  done

let solve a b =
  let x = Array.copy b in
  solve_in_place (Matrix.copy a) x;
  x

let lstsq_weighted a b ~weights =
  let nr = Matrix.rows a and nc = Matrix.cols a in
  if Array.length b <> nr then invalid_arg "Linsolve.lstsq: rhs length mismatch";
  if Array.length weights <> nr then invalid_arg "Linsolve.lstsq: weights length mismatch";
  if nr < nc then invalid_arg "Linsolve.lstsq: underdetermined system";
  Array.iter (fun w -> if w < 0.0 then invalid_arg "Linsolve.lstsq: negative weight") weights;
  (* Normal equations: (AᵀWA + ridge·I) x = AᵀWb.  The ridge is scaled to
     the magnitude of the diagonal so it only matters near singularity. *)
  let a = Matrix.data a in
  let ata = Matrix.create ~rows:nc ~cols:nc in
  let m = Matrix.data ata in
  let atb = Array.make nc 0.0 in
  for i = 0 to nr - 1 do
    let w = weights.(i) in
    if w > 0.0 then
      for j = 0 to nc - 1 do
        let aij = Array.unsafe_get a ((i * nc) + j) in
        atb.(j) <- atb.(j) +. (w *. aij *. b.(i));
        for k = j to nc - 1 do
          Array.unsafe_set m ((j * nc) + k)
            (Array.unsafe_get m ((j * nc) + k) +. (w *. aij *. Array.unsafe_get a ((i * nc) + k)))
        done
      done
  done;
  (* symmetrise *)
  for j = 0 to nc - 1 do
    for k = 0 to j - 1 do
      Array.unsafe_set m ((j * nc) + k) (Array.unsafe_get m ((k * nc) + j))
    done
  done;
  let max_diag = ref 0.0 in
  for j = 0 to nc - 1 do
    max_diag := Float.max !max_diag (Float.abs (Array.unsafe_get m ((j * nc) + j)))
  done;
  let ridge = 1e-12 *. Float.max !max_diag 1e-30 in
  for j = 0 to nc - 1 do
    Array.unsafe_set m ((j * nc) + j) (Array.unsafe_get m ((j * nc) + j) +. ridge)
  done;
  solve_in_place ata atb;
  atb

let lstsq a b = lstsq_weighted a b ~weights:(Array.make (Matrix.rows a) 1.0)

let invert a =
  let n = Matrix.rows a in
  if Matrix.cols a <> n then invalid_arg "Linsolve.invert: matrix not square";
  let inv = Matrix.create ~rows:n ~cols:n in
  for j = 0 to n - 1 do
    let e = Array.init n (fun i -> if i = j then 1.0 else 0.0) in
    let col = solve a e in
    for i = 0 to n - 1 do
      Matrix.set inv i j col.(i)
    done
  done;
  inv

let residual_norm a x b =
  let ax = Matrix.mul_vec a x in
  let acc = ref 0.0 in
  Array.iteri (fun i v -> acc := !acc +. ((v -. b.(i)) ** 2.0)) ax;
  Float.sqrt !acc
