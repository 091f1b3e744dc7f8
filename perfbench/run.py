#!/usr/bin/env python3
"""Real-stack Bento benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload echo --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds the
repository's libraries, bentotrace and bento_perfbench into $CARGO_TARGET_DIR
(default .bench_build); later runs only check that the build is current.

Prints the build and host context, then every metric with its unit, then as
the last line one JSON object {"correct", "attempted", "failed", "metrics"}
holding the metrics BENCHMARK.json declares: the end-to-end ones with
--trace 0, the per-layer ones with --trace 1. Exits non-zero, after printing
the result, when any op's output was wrong; exits non-zero without a result
when the benchmark cannot build or run.
"""
import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170

# Sim-time stages whose critical-path share the traced run reports, as
# bentotrace names their segments (stage name with '_', then the kind).
CRITPATH_STAGES = ["client_invoke", "net_link", "relay_forward", "server_handle",
                   "fn_dispatch", "fn_execute", "attest"]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build(out_dir):
    log_path = os.path.join(out_dir, "build.log")
    os.makedirs(out_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out_dir, "-j", jobs,
                  "--target", "bento_perfbench", "bentotrace"])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build step failed: {' '.join(cmd)} (log: {log_path})")


def source_digest():
    """sha256 over the sources the benchmark builds, for runs outside git."""
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def host_context(binary_build):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True).stdout.strip()
    except OSError:
        rev = ""
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "compiler": binary_build.get("compiler"),
        "build_type": binary_build.get("build_type"),
        "cxx_flags": binary_build.get("cxx_flags"),
        "git_rev": rev or "none (not a git checkout)",
        "source_sha256": source_digest(),
    }


def critpath_metrics(tracer, trace_path):
    """Mean sim ms per request root on each stage's critical-path segments."""
    res = subprocess.run([tracer, "critpath", trace_path, "--json"],
                         capture_output=True, text=True, timeout=60)
    if res.returncode:
        fail(f"bentotrace critpath failed: {res.stderr.strip()}")
    profile = json.loads(res.stdout)["critpath"]
    if profile["requests"] == 0:
        fail("bentotrace found no complete request in the trace")
    out = {}
    for stage in CRITPATH_STAGES:
        us = sum(seg["mean_us"] for seg in profile["segments"]
                 if seg["region"] == "all" and seg["seg"].startswith(stage))
        out[f"critpath.{stage}_ms"] = {"value": us / 1e3, "unit": "ms"}
    out["critpath.requests"] = {"value": profile["requests"], "unit": "count"}
    return out


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out_dir = build_dir()
    build(out_dir)
    started = time.monotonic()
    binary = os.path.join(out_dir, "bento_perfbench")
    tracer = os.path.join(out_dir, "bento_tools", "bentotrace")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    trace_path = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.jsonl")
    if args.trace:
        cmd += ["--trace-out", trace_path]
    env = dict(os.environ)
    env.pop("BENTO_SIM_SHARDS", None)  # one event loop, one thread
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                             timeout=max(1.0, RUN_TIMEOUT_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        fail("bento_perfbench timed out")
    try:
        result = json.loads(res.stdout)
    except json.JSONDecodeError:
        fail(f"bento_perfbench exited {res.returncode} without a result")

    metrics = result["metrics"]
    if args.trace:
        metrics.update(critpath_metrics(tracer, trace_path))
        os.remove(trace_path)
    attempted, failed = result["attempted"], result["failed"]
    metrics["failed_ratio"] = {"value": failed / attempted if attempted else 1.0,
                               "unit": "ratio"}

    for key, value in host_context(result["build"]).items():
        print(f"# {key}: {value}")
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} attempted={attempted} failed={failed}")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:>18.6g} {m['unit']}")

    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    missing = [n for n in declared if n not in metrics]
    if missing:
        fail(f"metrics missing from the run: {', '.join(missing)}", 3)
    correct = res.returncode == 0 and failed == 0 and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: metrics[n] for n in declared},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
