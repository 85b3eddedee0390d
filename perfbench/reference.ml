(* Inputs and expected results made apart from the program under test:
   the benchmark's own seeded generator and a plain triple loop.

   Integer-valued inputs with small entries and power-of-two alpha and
   beta keep every partial sum exactly representable in f32 as well as
   f64 (|C| stays far below 2^23 at k <= 1024), so the generated GEMM
   must reproduce the triple loop bit for bit at both precisions,
   whatever order a kernel sums in.  Random inputs are compared within
   the K-scaled tolerance of the element type instead. *)

module Mat = Augem.Blas.Matrix
module Et = Augem.Machine.Etype

let int_matrix rng rows cols =
  Mat.init rows cols (fun _ _ -> float_of_int (Random.State.int rng 7 - 3))

(* Uniform in [-1, 1), rounded to [et] so the kernel and the f64 loop
   start from the same representable values. *)
let random_matrix et rng rows cols =
  Mat.init rows cols (fun _ _ -> Et.round et (Random.State.float rng 2.0 -. 1.0))

(* beta*C + alpha*A*B in f64, column-major with leading dimension m. *)
let gemm ~alpha ~beta (a : Mat.t) (b : Mat.t) (c : Mat.t) : float array =
  let m = a.Mat.rows and k = a.Mat.cols and n = b.Mat.cols in
  let out = Array.make (m * n) 0. in
  let ad = a.Mat.data and bd = b.Mat.data in
  for j = 0 to n - 1 do
    let oj = j * m in
    for l = 0 to k - 1 do
      let blj = Array.unsafe_get bd ((j * b.Mat.ld) + l) in
      let al = l * a.Mat.ld in
      for i = 0 to m - 1 do
        Array.unsafe_set out (oj + i)
          (Array.unsafe_get out (oj + i)
          +. (Array.unsafe_get ad (al + i) *. blj))
      done
    done;
    for i = 0 to m - 1 do
      out.(oj + i) <- (beta *. Mat.get c i j) +. (alpha *. out.(oj + i))
    done
  done;
  out

(* Number of elements of [got] (column-major, leading dimension equal
   to its row count) that differ from [want]. *)
let mismatches (got : Mat.t) (want : float array) =
  let bad = ref 0 in
  Array.iteri (fun i x -> if x <> want.(i) then incr bad) got.Mat.data;
  !bad

(* Largest |got - want| relative to 1 + max |want|. *)
let rel_error (got : Mat.t) (want : float array) =
  let scale = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0. want in
  let worst = ref 0. in
  Array.iteri
    (fun i x -> worst := Float.max !worst (Float.abs (x -. want.(i))))
    got.Mat.data;
  !worst /. (1. +. scale)
