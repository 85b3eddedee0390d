(* The host's speed during a run, measured with fixed computations of
   the benchmark's own.  The host is shared, and in some runs every
   unit of work is 20-35% slower than in others; timing these two
   loops beside the program's units tells the runs apart.  They call
   nothing in the program and allocate nothing, so neither a change to
   the program nor one to its GC settings can move them: one is
   floating-point arithmetic on data in cache, the other streams an
   8 MB array, larger than the run's share of the last-level cache. *)

let n = 96
let fa = Array.init (n * n) (fun i -> float_of_int ((i * 7 mod 13) - 6))
let fb = Array.init (n * n) (fun i -> float_of_int ((i * 5 mod 11) - 5))
let fc = Array.make (n * n) 0.

let compute () =
  for j = 0 to n - 1 do
    for i = 0 to n - 1 do
      let s = ref 0. in
      for l = 0 to n - 1 do
        s := !s +. (fa.((l * n) + i) *. fb.((j * n) + l))
      done;
      fc.((j * n) + i) <- !s
    done
  done;
  fc.(0)

let big = Array.init (1 lsl 20) float_of_int

let stream () =
  let s = ref 0. in
  for r = 0 to 3 do
    for i = 0 to Array.length big - 1 do
      s := !s +. Array.unsafe_get big ((i + r) land (Array.length big - 1))
    done
  done;
  !s

(* Each loop with its median time on the reference host (the Xeon
   described in README.md) in its usual state. *)
let kinds = [ ("calib.compute", compute, 2.8e-3); ("calib.stream", stream, 10.0e-3) ]

(* [slowdown median] is the geometric mean over the two loops of the
   run's median time over the reference time: above 1 when the host
   ran slower than usual. *)
let slowdown median =
  let logs = List.map (fun (name, _, ref_s) -> log (median name /. ref_s)) kinds in
  exp (List.fold_left ( +. ) 0. logs /. float_of_int (List.length logs))
