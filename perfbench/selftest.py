#!/usr/bin/env python3
"""Smoke test of the benchmark: a short run of every workload.

    python3 perfbench/selftest.py [--seconds 1] [--seed 7]

For each workload in BENCHMARK.json it checks that an untraced run and a
traced run succeed with correct=true and failed == 0 (failed_ratio 0), that
every declared end-to-end and per-layer metric is present, and that a second
untraced run with the same seed gives identical allocs_per_op and
sim_latency_ms_*. Exits non-zero on the first failure.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT = ["allocs_per_op", "sim_latency_ms_p50", "sim_latency_ms_p90"]


def run(workload, seed, seconds, trace):
    res = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode or not lines:
        sys.exit(f"FAIL {workload} trace={trace}: exit {res.returncode}\n{res.stderr[-2000:]}")
    return json.loads(lines[-1])


def check(cond, what):
    if not cond:
        sys.exit(f"FAIL {what}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seconds", type=float, default=1)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in (w["name"] for w in spec["workloads"]):
        runs = [run(w, args.seed, args.seconds, 0), run(w, args.seed, args.seconds, 0),
                run(w, args.seed, args.seconds, 1)]
        for r, kind in zip(runs, ["end_to_end", "end_to_end", "per_layer"]):
            check(r["correct"] and r["failed"] == 0 and r["attempted"] > 0,
                  f"{w}: {r['failed']} of {r['attempted']} ops failed")
            missing = {m["name"] for m in spec[kind]} - set(r["metrics"])
            check(not missing, f"{w}: missing {sorted(missing)}")
        for name in EXACT:
            a, b = (r["metrics"][name]["value"] for r in runs[:2])
            check(a == b, f"{w}: {name} differs between same-seed runs ({a} vs {b})")
        print(f"ok {w}: {runs[0]['attempted']} ops, failed_ratio 0, "
              f"allocs_per_op {runs[0]['metrics']['allocs_per_op']['value']}")
    print("selftest passed")


if __name__ == "__main__":
    main()
