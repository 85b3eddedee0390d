(* The generator and service side of a run: cold tuning sweeps, the
   differential check that gates native execution, and the kernel
   service answering cold and warm [tune] requests in process. *)

module A = Augem
module NB = A.Native_blocked
module B = A.Blocked
module Et = A.Machine.Etype
module Arch = A.Machine.Arch
module Insn = A.Machine.Insn
module Kernels = A.Ir.Kernels
module Tuner = A.Tuner
module Json = A.Json
module Server = Augem_service.Server
module Proto = Augem_service.Proto
module Scheduler = Augem_service.Scheduler

let arch = Arch.haswell
let fp_of = function Et.F32 -> Some A.Ir.Ast.Float | Et.F64 -> None
let seconds_since t0 = Int64.to_float (Int64.sub (Span.now_ns ()) t0) /. 1e9

(* --- plan: the sweeps a cold [Blocked.plan] runs ------------------------ *)

(* [Blocked.plan] answers the packing kernels from the tuner's
   in-process memo once they are tuned; a cold plan runs the joint
   micro x blocking sweep and both packing sweeps, so that is what is
   timed, with [jobs] = 1 and no cache tier.  The result must equal
   the plan built at set-up (tuning is deterministic).  Returns the
   seconds taken and whether the result matched. *)
let plan_unit (p : B.plan) =
  let et = p.B.pl_et in
  let en = Et.name et in
  let t0 = Span.now_ns () in
  let same =
    Span.run
      ~count:(fun (_, visited) -> float_of_int visited)
      ("autotune.plan." ^ en)
      (fun () ->
        let bb =
          Span.run ("autotune.tune_blocked." ^ en) (fun () -> Tuner.tune_blocked ~et ~jobs:1 arch)
        in
        let pa = Tuner.tune ~et ~jobs:1 arch Kernels.Pack_a in
        let pb = Tuner.tune ~et ~jobs:1 arch Kernels.Pack_b in
        ( bb.Tuner.bb_program = p.B.pl_micro
          && bb.Tuner.bb_blocking = p.B.pl_blocking
          && pa.Tuner.best_program = p.B.pl_pack_a
          && pb.Tuner.best_program = p.B.pl_pack_b
          && not (pa.Tuner.fell_back || pb.Tuner.fell_back),
          bb.Tuner.bb_micro_visited + pa.Tuner.visited + pb.Tuner.visited ))
    |> fst
  in
  (seconds_since t0, same)

(* --- verify: the native differential check ------------------------------ *)

(* Remainder-heavy shapes: no dimension is a multiple of the register
   tile (8x6 at f64, 16x6 at f32). *)
let verify_shape = function Et.F64 -> (45, 31, 27) | Et.F32 -> (53, 29, 35)

(* [Native_blocked.check] (native vs simulator vs naive reference) on
   one plan.  Returns the seconds taken and the check's verdict. *)
let verify_unit ~seed (np : NB.native_plan) =
  let et = np.NB.np_plan.B.pl_et in
  let m, n, k = verify_shape et in
  let t0 = Span.now_ns () in
  let r = Span.run ("native_check." ^ Et.name et) (fun () -> NB.check ~seed np ~m ~n ~k ()) in
  (seconds_since t0, r)

(* Traced only: the simulated blocked GEMM the check runs, with its
   instruction count. *)
let sim_probe ~seed (p : B.plan) =
  let et = p.B.pl_et in
  let m, n, k = verify_shape et in
  let rng = Random.State.make [| seed; 31 |] in
  let a = Reference.random_matrix et rng m k
  and b = Reference.random_matrix et rng k n
  and c = Reference.random_matrix et rng m n in
  ignore
    (Span.run
       ~count:(fun (s : B.stats) -> float_of_int s.B.st_insns)
       ("sim.blocked_gemm." ^ Et.name et)
       (fun () -> B.gemm p a b c))

(* Every FMA of the micro-kernel turned into a plain multiply: a kernel
   that runs to completion and computes the wrong product. *)
let wrong_micro (prog : Insn.program) : Insn.program =
  {
    prog with
    Insn.prog_insns =
      List.map
        (function
          | Insn.Vop ({ op = Insn.Fma231; _ } as v) -> Insn.Vop { v with op = Insn.Fmul }
          | i -> i)
        prog.Insn.prog_insns;
  }

(* The gate must pass the tuned plan and refuse the same plan with a
   wrong micro-kernel.  A small blocking keeps the simulated half
   cheap and forces several blocks per dimension.  Returns a list of
   failures (empty when the gate behaves). *)
let negative_check ~seed (np : NB.native_plan) =
  let p = np.NB.np_plan in
  let blocking = { A.Sim.Mem_model.bl_mc = 16; bl_kc = 16; bl_nc = 12 } in
  let m, n, k = (21, 19, 23) in
  let good =
    match NB.check ~blocking ~seed np ~m ~n ~k () with
    | Ok () -> []
    | Error e -> [ "tuned plan failed the gate: " ^ e ]
  in
  let bad_plan = { p with B.pl_micro = wrong_micro p.B.pl_micro } in
  let bad =
    if bad_plan.B.pl_micro = p.B.pl_micro then [ "micro-kernel has no FMA to corrupt" ]
    else
      match NB.load bad_plan with
      | A.Native_check.Rejected _ | A.Native_check.Unsupported _ -> []
      | A.Native_check.Ready bad_np -> (
          let r = NB.check ~blocking ~seed bad_np ~m ~n ~k () in
          NB.release bad_np;
          match r with
          | Error _ -> []
          | Ok () -> [ "a wrong micro-kernel passed the gate" ])
  in
  good @ bad

(* Traced only: one lowering, the lints and the encoder on the plans'
   kernels. *)
let codegen_probes (plans : B.plan list) =
  let kernels (p : B.plan) = [ p.B.pl_micro; p.B.pl_pack_a; p.B.pl_pack_b ] in
  Span.run "driver.lower" (fun () ->
      List.iter
        (fun (p : B.plan) ->
          ignore
            (A.Driver.Lower.run ~arch
               ~config:p.B.pl_micro_config.Tuner.cand_config
               (Kernels.kernel_of_name ?fp:(fp_of p.B.pl_et) Kernels.Gemm)))
        plans);
  Span.run "analysis.lint" (fun () ->
      List.iter
        (fun p ->
          List.iter
            (fun prog ->
              ignore
                (A.Analysis.Asmcheck.check
                   ~config:(A.Analysis.Asmcheck.conservative ~avx:true)
                   prog))
            (kernels p))
        plans);
  ignore
    (Span.run ~count:float_of_int "jit.encode" (fun () ->
         List.fold_left
           (fun bytes (p : B.plan) ->
             List.fold_left
               (fun bytes prog ->
                 let e = A.Jit.Encoder.encode_program ~avx:true ~et:p.B.pl_et prog in
                 bytes + String.length e.A.Jit.Encoder.enc_code)
               bytes (kernels p))
           0 plans))

(* --- serve --------------------------------------------------------------- *)

type key = { kernel : Kernels.name; karch : string; et : Et.t }

(* Fixed key set: six kernels over the three modelled architectures
   and both precisions.  GEMM is left out: its sweep is what [plan_s]
   times. *)
let keys =
  [
    { kernel = Kernels.Gemv; karch = "haswell"; et = Et.F64 };
    { kernel = Kernels.Ger; karch = "sandybridge"; et = Et.F64 };
    { kernel = Kernels.Axpy; karch = "piledriver"; et = Et.F32 };
    { kernel = Kernels.Dot; karch = "haswell"; et = Et.F32 };
    { kernel = Kernels.Scal; karch = "sandybridge"; et = Et.F64 };
    { kernel = Kernels.Copy; karch = "haswell"; et = Et.F32 };
    { kernel = Kernels.Gemv; karch = "piledriver"; et = Et.F32 };
    { kernel = Kernels.Dot; karch = "sandybridge"; et = Et.F64 };
  ]

let request_line id k =
  Printf.sprintf {|{"id":%d,"op":"tune","kernel":"%s","arch":"%s","precision":"%s"}|} id
    (Kernels.name_to_string k.kernel) k.karch (Et.name k.et)

(* An [ok], non-degraded reply naming the requested kernel (with its
   precision prefix) and arch; returns the assembly. *)
let check_reply k line : (string, string) result =
  let field f j = Json.member f j in
  match Json.parse line with
  | Error e -> Error ("unparseable response: " ^ e)
  | Ok j -> (
      let want_fp = match k.et with Et.F32 -> A.Ir.Ast.Float | Et.F64 -> A.Ir.Ast.Double in
      match (field "ok" j, field "kernel" j, field "arch" j, field "degraded" j, field "assembly" j) with
      | Some (Json.Bool true), Some (Json.String kn), Some (Json.String an),
        Some (Json.Bool false), Some (Json.String asm)
        when Kernels.name_of_string_fp kn = Some (k.kernel, want_fp)
             && String.equal an k.karch && asm <> "" ->
          Ok asm
      | _ -> Error ("unexpected response: " ^ String.sub line 0 (min 200 (String.length line))))

let config = { Server.default_config with Server.cfg_recover = false }

(* One cold request through the server.  Traced, the handling is
   timed apart from the parse and the rendering. *)
let serve_cold srv line =
  if not !Span.enabled then Server.handle_line srv line
  else
    match Proto.parse_request line with
    | Error _ -> Server.handle_line srv line
    | Ok rq ->
        Proto.response_line (Span.run "service.miss" (fun () -> Server.handle_request srv rq))

type serve = {
  cold_ms : float array;  (* cold latency of each key, in [order] *)
  warm_rps : float list;  (* one figure per block *)
  requests : int;
  reply_bytes : int;  (* one warm reply per key *)
  bad : string list;
  assemblies : (key * string) list;  (* from the cold replies *)
}

let warm_block = 500

(* A fresh server answers each key cold (registry miss, scheduler,
   sweep), then [blocks] blocks of warm requests (in-memory tier hits)
   from one closed-loop client.  Each warm reply must equal the first
   warm reply for its key byte for byte, and that reply's assembly the
   cold one's. *)
let serve_unit ~order ~blocks =
  let srv = Server.create ~config () in
  let bad = ref [] in
  let cold = Array.make (Array.length order) "" in
  let cold_ms = Array.make (Array.length order) 0. in
  Span.run "service.cold_round" (fun () ->
      Array.iteri
        (fun i k ->
          let t0 = Span.now_ns () in
          let reply = serve_cold srv (request_line i k) in
          cold_ms.(i) <- seconds_since t0 *. 1000.;
          match check_reply k reply with
          | Ok asm -> cold.(i) <- asm
          | Error e -> bad := e :: !bad)
        order);
  let lines = Array.mapi (fun i k -> request_line i k) order in
  let first =
    Array.mapi
      (fun i k ->
        let r = Server.handle_line srv lines.(i) in
        (match check_reply k r with
        | Ok asm when String.equal asm cold.(i) -> ()
        | Ok _ -> bad := "warm assembly differs from cold" :: !bad
        | Error e -> bad := e :: !bad);
        r)
      order
  in
  let nk = Array.length order in
  let replies = Array.make warm_block "" in
  let warm_rps =
    List.init blocks (fun _ ->
        let t0 = Span.now_ns () in
        Span.run "service.warm_block" (fun () ->
            for r = 0 to warm_block - 1 do
              replies.(r) <- Server.handle_line srv lines.(r mod nk)
            done);
        let rps = float_of_int warm_block /. seconds_since t0 in
        Array.iteri
          (fun r line ->
            if not (String.equal line first.(r mod nk)) then
              bad := "warm reply changed between requests" :: !bad)
          replies;
        rps)
  in
  if !Span.enabled then begin
    let parsed = Array.map (fun l -> Result.get_ok (Proto.parse_request l)) lines in
    ignore
      (Span.run ~count:(fun () -> 1000.) "service.parse" (fun () ->
           for r = 0 to 999 do
             ignore (Proto.parse_request lines.(r mod nk))
           done));
    let responses =
      Span.run ~count:(fun _ -> 1000.) "service.hit_block" (fun () ->
          Array.init 1000 (fun r -> Server.handle_request srv parsed.(r mod nk)))
    in
    Span.run ~count:(fun () -> 1000.) "service.render" (fun () ->
        Array.iter (fun rs -> ignore (Proto.response_line rs)) responses)
  end;
  Server.drain srv;
  {
    cold_ms;
    warm_rps;
    requests = (2 * nk) + (blocks * warm_block) + if !Span.enabled then 1000 else 0;
    reply_bytes = Array.fold_left (fun acc l -> acc + String.length l) 0 first;
    bad = List.rev !bad;
    assemblies = Array.to_list (Array.mapi (fun i k -> (k, cold.(i))) order);
  }

(* Traced only: the scheduler hand-off a cold request pays, on an
   empty job. *)
let submit_await_probe () =
  let s = Scheduler.create ~workers:1 ~capacity:8 () in
  Span.run ~count:(fun () -> 1000.) "parallel.submit_await" (fun () ->
      for _ = 1 to 1000 do
        match Scheduler.submit s (fun () -> ()) with
        | Some f -> ignore (Scheduler.await f)
        | None -> ()
      done);
  Scheduler.shutdown s

(* Assemble each served kernel with the local GNU [as].  Returns
   [None] when [as] cannot be started, else the keys it refused. *)
let assemble ~dir (assemblies : (key * string) list) =
  let run_as src obj =
    let pid =
      Unix.create_process "as" [| "as"; "--64"; "-o"; obj; src |] Unix.stdin Unix.stderr
        Unix.stderr
    in
    match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> true | _ -> false
  in
  match
    List.filter_map
      (fun (k, asm) ->
        let base =
          Filename.concat dir
            (Printf.sprintf "%s-%s-%s" (Kernels.name_to_string k.kernel) k.karch (Et.name k.et))
        in
        let src = base ^ ".s" and obj = base ^ ".o" in
        Out_channel.with_open_bin src (fun oc -> output_string oc asm);
        if run_as src obj then None else Some (Filename.basename src))
      assemblies
  with
  | refused -> Some refused
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> None
