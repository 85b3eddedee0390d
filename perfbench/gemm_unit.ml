(* The GEMM side of a run: the workload's problem set, timed passes
   through the public [Native_blocked.gemm], and the traced probes of
   the layers under it (micro-kernel, packing, bridge, loop nest). *)

module A = Augem
module NB = A.Native_blocked
module B = A.Blocked
module Mat = A.Blas.Matrix
module Et = A.Machine.Etype
module MM = A.Sim.Mem_model
module Exec_buf = A.Jit.Runtime.Exec_buf

type call = {
  m : int;
  n : int;
  k : int;
  alpha : float;
  beta : float;
  a : Mat.t;
  b : Mat.t;
  c0 : Mat.t;
  c : Mat.t;  (* working copy, reset from [c0] before every call *)
  mutable expect : float array;  (* triple-loop result, filled by [set_expected] *)
}

let flops calls =
  List.fold_left
    (fun acc c -> acc +. (2. *. float_of_int c.m *. float_of_int c.n *. float_of_int c.k))
    0. calls

let make rng (m, n, k, alpha, beta) =
  let a = Reference.int_matrix rng m k in
  let b = Reference.int_matrix rng k n in
  let c0 = Reference.int_matrix rng m n in
  { m; n; k; alpha; beta; a; b; c0; c = Mat.copy c0; expect = [||] }

(* gemm_large: one 1024^3 call per precision. *)
let large_shapes = [ (1024, 1024, 1024, 1.0, 1.0) ]

(* gemm_small: each dimension is drawn from [base-7, base].  No band
   holds a multiple of the plans' MC (96), KC (336 at f64, 672 at f32)
   or NC (1560), so the block schedule, and every count derived from
   it, is the same for every seed; the seed moves the remainder tiles
   and the values.  Every third shape scales by alpha = 2, beta = 1/2
   and every third by alpha = -1/2, beta = 0. *)
let small_bases =
  [
    (24, 24, 24) (* cubes *);
    (40, 40, 40);
    (72, 72, 72);
    (130, 130, 130);
    (250, 250, 250);
    (512, 512, 24) (* rank-k updates *);
    (300, 320, 48);
    (512, 23, 256) (* tall-skinny *);
    (400, 40, 130);
    (23, 512, 200) (* short-wide *);
    (64, 64, 512) (* deep k *);
    (180, 100, 400);
  ]

let small_shapes rng =
  List.mapi
    (fun i (m, n, k) ->
      let d base = base - Random.State.int rng 8 in
      let alpha, beta =
        match i mod 3 with 0 -> (1.0, 1.0) | 1 -> (2.0, 0.5) | _ -> (-0.5, 0.0)
      in
      (d m, d n, d k, alpha, beta))
    small_bases

(* Passes per GEMM slot of a round.  A gemm_small pass takes ~40 ms,
   most of it staging whose cost jumps from call to call; with one
   pass per slot a run's median rested on ten samples and spread
   14-16% between runs, so its slots run four. *)
let passes_per_slot = function "gemm_large" -> 1 | _ -> 4

let problem_set ~workload rng =
  let shapes =
    match workload with
    | "gemm_large" -> large_shapes
    | _ -> small_shapes rng
  in
  List.map (make rng) shapes

let set_expected calls =
  List.iter
    (fun c -> c.expect <- Reference.gemm ~alpha:c.alpha ~beta:c.beta c.a c.b c.c0)
    calls

let et_name np = Et.name np.NB.np_plan.B.pl_et

(* One call of the public entry point.  Traced, the same work is split
   at its own seams: staging ([gemm_runner]), the resident loop nest
   and the read-back. *)
let one_call np call =
  if not !Span.enabled then NB.gemm ~alpha:call.alpha ~beta:call.beta np call.a call.b call.c
  else
    let et = et_name np in
    let run, finish =
      Span.run ("native_blocked.stage." ^ et) (fun () ->
          NB.gemm_runner ~alpha:call.alpha ~beta:call.beta np call.a call.b call.c)
    in
    Span.run ("native_blocked.run." ^ et) run;
    Span.run ("native_blocked.readback." ^ et) finish

let invoke np buf iargs =
  Exec_buf.invoke buf ~iargs ~dargs:[||] ~fp32:(np.NB.np_plan.B.pl_et = Et.F32)

(* The kernel calls [Native_blocked.gemm_runner]'s loop nest makes for
   one call, in the same block order, on resident tensors: the
   kernels' share of a pass without the nest around them.  Returns
   the number of kernel invocations. *)
let replay np call =
  let p = np.NB.np_plan in
  let et = p.B.pl_et in
  let bl = p.B.pl_blocking in
  let ta = NB.stage et call.a.Mat.data
  and tb = NB.stage et call.b.Mat.data
  and tc = NB.stage et call.c0.Mat.data
  and tpa = NB.tensor et (bl.MM.bl_mc * bl.MM.bl_kc)
  and tpb = NB.tensor et (bl.MM.bl_kc * bl.MM.bl_nc) in
  let i64 = Int64.of_int in
  let lda = call.a.Mat.ld and ldb = call.b.Mat.ld and ldc = call.c0.Mat.ld in
  Span.run ~count:float_of_int ("jit.kernels." ^ Et.name et) (fun () ->
      let calls = ref 0 in
      let j0 = ref 0 in
      while !j0 < call.n do
        let nc = min bl.MM.bl_nc (call.n - !j0) in
        let l0 = ref 0 in
        while !l0 < call.k do
          let kc = min bl.MM.bl_kc (call.k - !l0) in
          invoke np np.NB.np_pack_b
            [| i64 kc; i64 nc; i64 ldb; tb.NB.t_addr ((!j0 * ldb) + !l0); tpb.NB.t_addr 0 |];
          incr calls;
          let i0 = ref 0 in
          while !i0 < call.m do
            let mc = min bl.MM.bl_mc (call.m - !i0) in
            invoke np np.NB.np_pack_a
              [| i64 mc; i64 kc; i64 lda; ta.NB.t_addr ((!l0 * lda) + !i0); tpa.NB.t_addr 0 |];
            invoke np np.NB.np_micro
              [|
                i64 mc; i64 kc; i64 nc; i64 ldc; tpa.NB.t_addr 0; tpb.NB.t_addr 0;
                tc.NB.t_addr ((!j0 * ldc) + !i0);
              |];
            calls := !calls + 2;
            i0 := !i0 + mc
          done;
          l0 := !l0 + kc
        done;
        j0 := !j0 + nc
      done;
      !calls)

type pass = { p_seconds : float; p_wrong : int; p_failed : int; p_calls : int }

(* One pass over the problem set.  Only the calls are timed; resetting
   C and comparing the result with the triple loop happen outside.
   Traced, each call sits next to the replay of its kernel calls, so
   the pass's nest time is measured against kernels run moments apart;
   the replay goes first on every other pass, so that the order of the
   two cancels out. *)
let passes = ref 0

let pass np calls =
  incr passes;
  let replay_first = !Span.enabled && !passes mod 2 = 0 in
  let secs = ref 0. and wrong = ref 0 and failed = ref 0 in
  Span.run ("native_blocked.pass." ^ et_name np) (fun () ->
      List.iter
        (fun call ->
          Array.blit call.c0.Mat.data 0 call.c.Mat.data 0 (Array.length call.c0.Mat.data);
          if replay_first then ignore (replay np call);
          let t0 = Span.now_ns () in
          match one_call np call with
          | () ->
              secs := !secs +. (Int64.to_float (Int64.sub (Span.now_ns ()) t0) /. 1e9);
              if Reference.mismatches call.c call.expect > 0 then incr wrong;
              if !Span.enabled && not replay_first then ignore (replay np call)
          | exception (Failure _ | Invalid_argument _) -> incr failed)
        calls);
  { p_seconds = !secs; p_wrong = !wrong; p_failed = !failed; p_calls = List.length calls }

(* Random-valued inputs against the f64 triple loop within
   [Etype.tol ~k]; one call per shape and plan.  The inputs are rounded
   to f32, so one triple loop serves both precisions.  Returns, per
   plan, the number of shapes out of tolerance. *)
let random_check ~seed nps calls =
  let rng = Random.State.make [| seed; 7919 |] in
  let bad = Array.make (List.length nps) 0 in
  List.iter
    (fun call ->
      let a = Reference.random_matrix Et.F32 rng call.m call.k in
      let b = Reference.random_matrix Et.F32 rng call.k call.n in
      let c0 = Reference.random_matrix Et.F32 rng call.m call.n in
      let want = Reference.gemm ~alpha:call.alpha ~beta:call.beta a b c0 in
      List.iteri
        (fun i np ->
          let et = np.NB.np_plan.B.pl_et in
          let c = Mat.copy c0 in
          NB.gemm ~alpha:call.alpha ~beta:call.beta np a b c;
          if Reference.rel_error c want > Et.tol ~k:call.k et then bad.(i) <- bad.(i) + 1)
        nps)
    calls;
  List.mapi (fun i np -> (et_name np, bad.(i))) nps

(* --- traced probes ------------------------------------------------------ *)

(* The micro-kernel alone on one resident plan-sized block, the two
   packing kernels on plan-sized panels, and the bridge on a 1x1x1
   block. *)
let kernel_probes np =
  let p = np.NB.np_plan in
  let et = p.B.pl_et in
  let en = Et.name et in
  let bl = p.B.pl_blocking in
  let mc = bl.MM.bl_mc and kc = bl.MM.bl_kc and nc = bl.MM.bl_nc in
  let i64 = Int64.of_int in
  let src_a = NB.tensor et (mc * kc) and src_b = NB.tensor et (kc * nc) in
  let tpa = NB.tensor et (mc * kc) and tpb = NB.tensor et (kc * nc) in
  let tc = NB.tensor et (mc * nc) in
  let eb = float_of_int (Et.bytes et) in
  let micro m k n () =
    invoke np np.NB.np_micro
      [| i64 m; i64 k; i64 n; i64 mc; tpa.NB.t_addr 0; tpb.NB.t_addr 0; tc.NB.t_addr 0 |]
  in
  for _ = 1 to 3 do
    Span.run
      ~count:(fun () -> 2. *. eb *. float_of_int (mc * kc))
      ("jit.pack_a." ^ en)
      (fun () ->
        invoke np np.NB.np_pack_a
          [| i64 mc; i64 kc; i64 mc; src_a.NB.t_addr 0; tpa.NB.t_addr 0 |]);
    Span.run
      ~count:(fun () -> 2. *. eb *. float_of_int (kc * nc))
      ("jit.pack_b." ^ en)
      (fun () ->
        invoke np np.NB.np_pack_b
          [| i64 kc; i64 nc; i64 kc; src_b.NB.t_addr 0; tpb.NB.t_addr 0 |]);
    Span.run
      ~count:(fun () -> 2. *. float_of_int mc *. float_of_int kc *. float_of_int nc)
      ("jit.micro." ^ en) (micro mc kc nc)
  done;
  Span.run ~count:(fun () -> 1000.) "jit.invoke" (fun () ->
      for _ = 1 to 1000 do
        micro 1 1 1 ()
      done)

(* The cycle model's rate for the problem set: total flops over the
   summed predicted times. *)
let model_gflops (p : B.plan) calls =
  let secs =
    List.fold_left
      (fun acc c ->
        let e = B.predict p (A.Sim.Perf.W_gemm { m = c.m; n = c.n; k = c.k }) in
        acc +. (2. *. float_of_int (c.m * c.n * c.k) /. (e.A.Sim.Perf.e_mflops *. 1e6)))
      0. calls
  in
  flops calls /. secs /. 1e9
