(* The benchmark of the generated-kernel pipeline.

     bench --workload gemm_large|gemm_small --seed N --seconds S --trace 0|1

   Every workload runs the whole pipeline in rounds: cold tuning
   sweeps, the native differential check, the kernel service cold and
   warm, and passes over the workload's GEMM problem set, interleaved
   so that a slow phase of the host cannot take every sample of one
   metric.  Each timed end-to-end metric is the median of the run's
   repeats of one deterministic unit of work: on the shared host the
   fastest repeat is a rare quiet moment, and varies far more from run
   to run than the median does.  Times and rates are then adjusted for
   the host's speed during the run, measured by the loops of [Calib]
   timed before every unit.  Set-up is repeated five times and
   reported as the median.  The last line of standard output is the
   JSON result; the raw samples go to perfbench/out/.  With --trace 1
   the same rounds run with spans around every call into a layer, plus
   probes of single layers, and the result carries the per-layer
   metrics derived from the spans. *)

module A = Augem
module NB = A.Native_blocked
module B = A.Blocked
module Et = A.Machine.Etype
module Cpu = A.Jit.Runtime.Cpu

let workloads = [ "gemm_large"; "gemm_small" ]
let out_dir = Filename.concat "perfbench" "out"

(* --- host ---------------------------------------------------------------- *)

let read_lines path =
  try In_channel.with_open_text path In_channel.input_all |> String.split_on_char '\n'
  with Sys_error _ -> []

let proc_field path name =
  List.find_map
    (fun l ->
      match String.index_opt l ':' with
      | Some i when String.equal (String.trim (String.sub l 0 i)) name ->
          Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
      | _ -> None)
    (read_lines path)

let fingerprint () =
  let model = Option.value ~default:"unknown" (proc_field "/proc/cpuinfo" "model name") in
  let flags =
    String.split_on_char ' ' (Option.value ~default:"" (proc_field "/proc/cpuinfo" "flags"))
  in
  let isa =
    List.filter
      (fun f -> List.mem f flags)
      [ "sse2"; "avx"; "avx2"; "fma"; "avx512f"; "avx512dq"; "avx512bw"; "avx512vl" ]
  in
  Printf.sprintf "cpu=%S isa=%s nproc=%d" model (String.concat "," isa)
    (Domain.recommended_domain_count ())

let peak_rss_mb () =
  match proc_field "/proc/self/status" "VmHWM" with
  | Some v -> Scanf.sscanf v "%d kB" (fun kb -> float_of_int kb /. 1024.)
  | None -> nan

(* --- accounting ---------------------------------------------------------- *)

let ops : (string * (int ref * int ref)) list ref = ref []
let problems : string list ref = ref []

let attempt ?(n = 1) ?(failed = 0) kind =
  let a, f =
    match List.assoc_opt kind !ops with
    | Some c -> c
    | None ->
        let c = (ref 0, ref 0) in
        ops := !ops @ [ (kind, c) ];
        c
  in
  a := !a + n;
  f := !f + failed

let wrong msg =
  if List.length !problems < 20 then prerr_endline ("WRONG: " ^ msg);
  problems := msg :: !problems

let totals () =
  List.fold_left (fun (a, f) (_, (a', f')) -> (a + !a', f + !f')) (0, 0) !ops

(* --- set-up -------------------------------------------------------------- *)

type env = { plans : B.plan list; nps : NB.native_plan list; calls : Gemm_unit.call list }

(* Plans for both precisions, their kernels loaded through the native
   gates, and the workload's inputs. *)
let setup ~workload ~seed =
  let plans = List.map (fun et -> B.plan ~et ~jobs:1 Toolchain.arch) [ Et.F64; Et.F32 ] in
  let nps =
    List.map
      (fun p ->
        match NB.load p with
        | A.Native_check.Ready np -> np
        | A.Native_check.Unsupported m | A.Native_check.Rejected m ->
            failwith ("native load refused the tuned plan: " ^ m))
      plans
  in
  let calls = Gemm_unit.problem_set ~workload (Random.State.make [| seed |]) in
  { plans; nps; calls }

let seconds_since = Toolchain.seconds_since

let median l = Option.value ~default:nan (Span.median_of l)
let min_of l = List.fold_left Float.min infinity l
let max_of l = List.fold_left Float.max neg_infinity l

(* --- per-layer metrics from the spans ------------------------------------ *)

let span_metrics env (sv : Toolchain.serve) =
  let open Span in
  let get = function Some v -> v | None -> nan in
  let ms x = x *. 1000. and us x = x *. 1e6 in
  (* per span called [parent]: the summed seconds and counts of its
     children called [child] *)
  let child_sums parent child =
    List.map
      (fun p ->
        List.fold_left
          (fun (s, c) sp ->
            if sp.parent = p.id && String.equal sp.name child then (s +. seconds sp, c +. sp.count)
            else (s, c))
          (0., 0.) !recorded)
      (named parent)
  in
  let median_child_sum parent child = median (List.map fst (child_sums parent child)) in
  let per_et np =
    let p = np.NB.np_plan in
    let et = p.B.pl_et in
    let en = Et.name et in
    let pass = "native_blocked.pass." ^ en in
    let hot = A.Sim.Cycle_sim.hot_loop ~et Toolchain.arch p.B.pl_micro in
    let hot f = match hot with Some li -> float_of_int (f li) | None -> nan in
    [
      ("jit.micro_gflops." ^ en, get (median_rate ("jit.micro." ^ en)) /. 1e9, "GFLOP/s");
      ("jit.pack_a_gbs." ^ en, get (median_rate ("jit.pack_a." ^ en)) /. 1e9, "GB/s");
      ("jit.pack_b_gbs." ^ en, get (median_rate ("jit.pack_b." ^ en)) /. 1e9, "GB/s");
      ("native_blocked.stage_ms." ^ en, ms (median_child_sum pass ("native_blocked.stage." ^ en)), "ms");
      ( "native_blocked.readback_ms." ^ en,
        ms (median_child_sum pass ("native_blocked.readback." ^ en)),
        "ms" );
      ( "native_blocked.nest_ms." ^ en,
        ms
          (median
             (List.map2
                (fun (run, _) (kernels, _) -> run -. kernels)
                (child_sums pass ("native_blocked.run." ^ en))
                (child_sums pass ("jit.kernels." ^ en)))),
        "ms" );
      ( "native_blocked.calls." ^ en,
        (match child_sums pass ("jit.kernels." ^ en) with (_, c) :: _ -> c | [] -> nan),
        "count" );
      ("codegen.hot_loop_insns." ^ en, hot (fun li -> List.length li.A.Sim.Cycle_sim.li_body), "count");
      ("codegen.hot_loop_loads." ^ en, hot (fun li -> li.A.Sim.Cycle_sim.li_loads), "count");
      ( "codegen.hot_loop_prefetches." ^ en,
        hot (fun li -> li.A.Sim.Cycle_sim.li_prefetches),
        "count" );
      ("perf.model_gflops." ^ en, Gemm_unit.model_gflops p env.calls, "GFLOP/s");
    ]
  in
  let sim_insns = get (count "sim.blocked_gemm.f64") +. get (count "sim.blocked_gemm.f32") in
  let sum_median names = List.fold_left (fun acc n -> acc +. get (median_seconds n)) 0. names in
  let plans = [ "autotune.plan.f64"; "autotune.plan.f32" ] in
  (* the median over serve units of the mean cold handling over the key set *)
  let miss_ms =
    median
      (List.map
         (fun (s, c) -> s /. float_of_int c)
         (List.map
            (fun p ->
              List.fold_left
                (fun (s, c) sp ->
                  if sp.parent = p.id && String.equal sp.name "service.miss" then (s +. seconds sp, c + 1)
                  else (s, c))
                (0., 0) !recorded)
            (named "service.cold_round")))
  in
  List.concat_map per_et env.nps
  @ [
      ("jit.invoke_us", us (get (median_per_count "jit.invoke")), "us");
      ( "autotune.cands_per_s",
        List.fold_left (fun acc n -> acc +. get (count n)) 0. plans /. sum_median plans,
        "1/s" );
      ( "autotune.tune_blocked_s",
        sum_median [ "autotune.tune_blocked.f64"; "autotune.tune_blocked.f32" ],
        "s" );
      ("driver.lower_ms", ms (get (median_seconds "driver.lower")), "ms");
      ("analysis.lint_ms", ms (get (median_seconds "analysis.lint")), "ms");
      ("jit.encode_us", us (get (median_seconds "jit.encode")), "us");
      ("jit.code_bytes", get (count "jit.encode"), "count");
      ("sim.insns", sim_insns, "count");
      ("sim.insns_per_s", sim_insns /. sum_median [ "sim.blocked_gemm.f64"; "sim.blocked_gemm.f32" ], "1/s");
      ("service.parse_us", us (get (median_per_count "service.parse")), "us");
      ("service.hit_us", us (get (median_per_count "service.hit_block")), "us");
      ("service.render_us", us (get (median_per_count "service.render")), "us");
      ("service.response_bytes", float_of_int sv.Toolchain.reply_bytes, "count");
      ("service.miss_ms", ms miss_ms, "ms");
      ("parallel.submit_await_us", us (get (median_per_count "parallel.submit_await")), "us");
    ]

(* --- main ---------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measuring time");
      ("--trace", Arg.Set_int trace, " 1: traced run reporting per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload W --seed N --seconds S --trace 0|1";
  let workload = !workload and seed = !seed and seconds = !seconds in
  if not (List.mem workload workloads) then begin
    prerr_endline ("unknown workload " ^ workload ^ "; one of " ^ String.concat ", " workloads);
    exit 2
  end;
  Printf.printf "host: %s\n%!" (fingerprint ());
  if not (A.Native_check.host_supported () && Cpu.have Cpu.FMA3) then begin
    print_endline "SKIPPED: the host lacks AVX+FMA3, so the haswell kernels cannot run natively";
    exit 3
  end;
  A.Tuner.set_cache_dir None;
  Span.enabled := !trace = 1;
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  (* set-up, five times; the first also fills the tuner's and the
     cycle model's in-process memos *)
  let setups =
    List.init 5 (fun _ ->
        Gc.full_major ();
        let t0 = Span.now_ns () in
        let e = setup ~workload ~seed in
        (seconds_since t0, e))
  in
  List.iteri
    (fun i (_, e) -> if i < List.length setups - 1 then List.iter NB.release e.nps)
    setups;
  let env = snd (List.nth setups (List.length setups - 1)) in
  let setup_s = median (List.map fst setups) in
  attempt ~n:(2 * List.length setups) "plans";
  Gemm_unit.set_expected env.calls;
  let order =
    let a = Array.of_list Toolchain.keys in
    let rng = Random.State.make [| seed; 101 |] in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a
  in
  (* rounds: every unit of work, GEMM passes between the others.  A
     full major collection before each unit keeps one unit from paying
     for the garbage of the one before. *)
  let samples : (string, float list) Hashtbl.t = Hashtbl.create 16 in
  let record name v =
    Hashtbl.replace samples name (v :: Option.value ~default:[] (Hashtbl.find_opt samples name))
  in
  let all name = Option.value ~default:[] (Hashtbl.find_opt samples name) in
  let first_serve = ref None in
  let calibrate () =
    List.iter
      (fun (name, f, _) ->
        let t0 = Span.now_ns () in
        ignore (Sys.opaque_identity (f ()));
        record name (seconds_since t0))
      Calib.kinds
  in
  let gemm_slot () =
    for _ = 1 to Gemm_unit.passes_per_slot workload do
      List.iter
        (fun np ->
          Gc.full_major ();
          calibrate ();
          let r = Gemm_unit.pass np env.calls in
          let en = Gemm_unit.et_name np in
          attempt ~n:r.Gemm_unit.p_calls ~failed:r.Gemm_unit.p_failed "gemm_calls";
          if r.Gemm_unit.p_wrong > 0 then
            wrong (Printf.sprintf "%s: %d GEMM results differ from the triple loop" en r.Gemm_unit.p_wrong);
          if r.Gemm_unit.p_failed = 0 then record ("pass." ^ en) r.Gemm_unit.p_seconds)
        env.nps
    done
  in
  let serve ?(timed = true) () =
    Gc.full_major ();
    calibrate ();
    let sv = Toolchain.serve_unit ~order ~blocks:2 in
    attempt ~n:sv.Toolchain.requests "requests";
    List.iter wrong sv.Toolchain.bad;
    if timed then begin
      record "cold"
        (Array.fold_left ( +. ) 0. sv.Toolchain.cold_ms /. float_of_int (Array.length sv.Toolchain.cold_ms));
      List.iter (record "warm") sv.Toolchain.warm_rps
    end;
    if !first_serve = None then first_serve := Some sv
  in
  let round () =
    List.iter
      (fun p ->
        Gc.full_major ();
        calibrate ();
        let s, same = Toolchain.plan_unit p in
        attempt "plans";
        if not same then wrong "a cold re-plan differs from the set-up plan";
        record ("plan." ^ Et.name p.B.pl_et) s)
      env.plans;
    gemm_slot ();
    serve ();
    List.iter
      (fun np ->
        Gc.full_major ();
        calibrate ();
        let s, r = Toolchain.verify_unit ~seed np in
        attempt "checks";
        (match r with Ok () -> () | Error e -> wrong ("native check: " ^ e));
        record ("verify." ^ Gemm_unit.et_name np) s;
        serve ())
      env.nps;
    gemm_slot ();
    if !Span.enabled then begin
      List.iter Gemm_unit.kernel_probes env.nps;
      List.iter (Toolchain.sim_probe ~seed) env.plans;
      Toolchain.codegen_probes env.plans;
      Toolchain.submit_await_probe ()
    end
  in
  (* The first serve unit of a process fills the cycle model's memo
     for the served kernels, so it is run once untimed. *)
  serve ~timed:false ();
  let t_start = Span.now_ns () in
  let rec loop n =
    round ();
    let el = seconds_since t_start in
    if n < 2 || el +. (el /. float_of_int n) <= seconds then loop (n + 1) else n
  in
  let rounds = loop 1 in
  let measured_s = seconds_since t_start in
  (* checks after the timed rounds *)
  (match !first_serve with
  | None -> ()
  | Some sv -> (
      let dir = Filename.concat out_dir "asm" in
      (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
      match Toolchain.assemble ~dir sv.Toolchain.assemblies with
      | None -> print_endline "as: not found, served assembly not assembled"
      | Some refused ->
          attempt ~n:(List.length sv.Toolchain.assemblies) "assemble";
          List.iter (fun f -> wrong ("GNU as refused " ^ f)) refused));
  List.iter
    (fun (en, bad) ->
      attempt ~n:(List.length env.calls) "gemm_calls";
      if bad > 0 then wrong (Printf.sprintf "%s: %d random-input results off the f64 triple loop" en bad))
    (Gemm_unit.random_check ~seed env.nps env.calls);
  List.iter
    (fun np ->
      attempt ~n:2 "checks";
      List.iter wrong (Toolchain.negative_check ~seed np))
    env.nps;
  (* report *)
  let attempted, failed = totals () in
  Printf.printf "workload=%s seed=%d rounds=%d measured_s=%.1f\n" workload seed rounds measured_s;
  Printf.printf "ops: %s\n"
    (String.concat " "
       (List.map (fun (k, (a, f)) -> Printf.sprintf "%s=%d/%d-failed" k !a !f) !ops));
  Hashtbl.iter
    (fun name l ->
      Printf.printf "samples %s: n=%d min=%.5g median=%.5g max=%.5g\n" name (List.length l)
        (min_of l) (median l) (max_of l))
    samples;
  Out_channel.with_open_text
    (Filename.concat out_dir (Printf.sprintf "samples-%s-%d-%d.json" workload seed !trace))
    (fun oc ->
      output_string oc
        ("{"
        ^ String.concat ","
            (Hashtbl.fold
               (fun name l acc ->
                 Printf.sprintf "%S:[%s]" name
                   (String.concat "," (List.rev_map (Printf.sprintf "%.17g") l))
                 :: acc)
               samples [])
        ^ "}\n"));
  let flops = Gemm_unit.flops env.calls in
  let sum_median names = List.fold_left (fun acc n -> acc +. median (all n)) 0. names in
  let raw =
    [
      ("dgemm_gflops", flops /. median (all "pass.f64") /. 1e9, "GFLOP/s");
      ("sgemm_gflops", flops /. median (all "pass.f32") /. 1e9, "GFLOP/s");
      ("plan_s", sum_median [ "plan.f64"; "plan.f32" ], "s");
      ("verify_s", sum_median [ "verify.f64"; "verify.f32" ], "s");
      ("serve_cold_ms", median (all "cold"), "ms");
      ("serve_warm_rps", median (all "warm"), "1/s");
      ("setup_s", setup_s, "s");
      ("peak_rss_mb", peak_rss_mb (), "MB");
    ]
  in
  let render l =
    String.concat ","
      (List.map
         (fun (n, v, u) ->
           let v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
           Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" n v u)
         l)
  in
  (* Every time and rate is reported at the reference host speed, so
     that a slow phase of the shared host does not read as a slower
     program; the figures as measured are printed beside them. *)
  let slowdown = Calib.slowdown (fun n -> median (all n)) in
  let e2e =
    List.map
      (fun (n, v, u) ->
        if String.ends_with ~suffix:"/s" u then (n, v *. slowdown, u)
        else if u = "s" || u = "ms" then (n, v /. slowdown, u)
        else (n, v, u))
      raw
  in
  Printf.printf "host slowdown: %.4f (%s)\n" slowdown
    (String.concat "; "
       (List.map
          (fun (name, _, ref_s) ->
            Printf.sprintf "%s median %.4g ms, reference %.4g ms" name (1000. *. median (all name))
              (1000. *. ref_s))
          Calib.kinds));
  Printf.printf "as measured: %s\n" (render raw);
  let metrics =
    if !Span.enabled then begin
      let path = Filename.concat out_dir (Printf.sprintf "trace-%s-%d.jsonl" workload seed) in
      Span.write path;
      Printf.printf "spans: %d written to %s\n" (List.length !Span.recorded) path;
      Printf.printf "traced end-to-end (compare with an untraced run for the tracing overhead): %s\n"
        (render e2e);
      span_metrics env (Option.get !first_serve)
    end
    else e2e
  in
  List.iter NB.release env.nps;
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (!problems = []) attempted failed (render metrics)
