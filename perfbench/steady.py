#!/usr/bin/env python3
"""Steadiness check for the benchmark.

    python3 perfbench/steady.py [--runs 10] [--traced 2] [--workload W ...]
                                [--seconds S] [--first-seed N]

Runs each workload --runs times untraced, each with its own seed, and
prints for every end-to-end metric of BENCHMARK.json the median, the
first and third quartiles (statistics.quantiles(values, n=4)) and
their distance as a share of the median, against the metric's bound.
Then runs each workload --traced times traced and confirms that every
count-valued per-layer metric reads the same in every run.  Every
result line is kept in perfbench/out/steady-<workload>.jsonl.  Exits
1 when a run fails, a spread exceeds its bound, the failed share
differs between runs, or a count differs.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {p.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--traced", type=int, default=2)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--first-seed", type=int, default=1)
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    workloads = a.workload or [w["name"] for w in bench["workloads"]]
    out = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out, exist_ok=True)
    ok = True
    for w in workloads:
        log = open(os.path.join(out, f"steady-{w}.jsonl"), "a")
        results = []
        for i in range(a.runs):
            seed = a.first_seed + i
            r = run(bench["command"], w, seed, seconds, 0)
            log.write(json.dumps({"seed": seed, "trace": 0, "result": r}) + "\n")
            log.flush()
            results.append(r)
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()), flush=True)
        if not all(r["correct"] for r in results):
            print(f"{w}: a run reported wrong results")
            ok = False
        shares = {(r["failed"], r["attempted"]) for r in results}
        if len({f / t for f, t in shares}) != 1:
            print(f"{w}: failed share differs between runs: {sorted(shares)}")
            ok = False
        print(f"\n{w}: {a.runs} runs of {seconds} s")
        print(f"  {'metric':16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            verdict = "ok" if spread <= m["bound"] / 3 else (
                "within bound" if spread <= m["bound"] else "TOO WIDE")
            if spread > m["bound"] and m["name"] != "setup_s":
                ok = False
            print(f"  {m['name']:16} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:8.3%} {m['bound']:6.2f} {verdict}")
        counts = {}
        for i in range(a.traced):
            seed = a.first_seed + a.runs + i
            r = run(bench["command"], w, seed, seconds, 1)
            log.write(json.dumps({"seed": seed, "trace": 1, "result": r}) + "\n")
            for m in bench["per_layer"]:
                v = r["metrics"].get(m["name"])
                if v is None:
                    print(f"  per-layer metric {m['name']} missing (seed {seed})")
                    ok = False
                elif m["unit"] == "count":
                    counts.setdefault(m["name"], set()).add(v["value"])
        if a.traced:
            varying = {k: v for k, v in counts.items() if len(v) != 1}
            print(f"  {len(counts)} count-valued per-layer metrics over {a.traced} traced runs: "
                  + ("all identical" if not varying else f"DIFFER {varying}"))
            ok = ok and not varying
        log.close()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
