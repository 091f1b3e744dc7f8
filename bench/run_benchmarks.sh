#!/usr/bin/env bash
# Timing gates on the cell datapath and the invoke path. Every gate is a
# ratio of two timings taken inside one run, so the host's speed cancels.
#
# Usage: bench/run_benchmarks.sh [build-dir]
#   BENCH_MIN_TIME   --benchmark_min_time per benchmark (default 0.2)
#
# Runs bench/datapath and the idle-mount benchmark of bench/store, prints
# one JSON record to stdout (host, CPU MHz, build type, the nine ratios
# below and the 3-hop relay's cells/s), writes no file, and exits 1 when a
# ratio is out of bounds:
#
#   chacha20_speedup_509/_8192    dispatched ChaCha20 vs the seed scalar
#                                 kernel compiled into the bench     >= 3.6x
#   sha256_speedup_512            Sha256 vs its scalar kernel         >= 3x
#   chacha20_avx512_speedup_1024  one 1 KiB refill, AVX-512 vs AVX2   >= 1.3x
#   poly1305_ifma_speedup_32k     Poly1305 vs its scalar block loop   >= 3x
#   metrics_overhead_pct          live metrics on the cell path       <= 10%
#   span_overhead_pct             one span per cell under a root      <= 15%
#   chaos_idle_overhead_pct       idle chaos hooks on network send    <= 2%
#   store_idle_overhead_pct       idle persistent-store mount, invoke <= 2%
#
# The SHA-256, AVX-512 and IFMA ratios are null, and not gated, on hosts
# without SHA-NI, AVX-512 or AVX-512 IFMA. The four overheads are paired medians
# (bench/paired.hpp). The exact gates — allocation counts, store replay
# determinism and the lint — run in tier-1 ctest (Alloc.*, Store.*,
# Lint.Tree).

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
min_time="${BENCH_MIN_TIME:-0.2}"

for bin in datapath store; do
  if [[ ! -x "${build_dir}/bench/${bin}" ]]; then
    echo "error: ${build_dir}/bench/${bin} not built (cmake --build ${build_dir} --target ${bin})" >&2
    exit 1
  fi
done

raw_json="$(mktemp)"
raw_store_json="$(mktemp)"
trap 'rm -f "${raw_json}" "${raw_store_json}"' EXIT

"${build_dir}/bench/datapath" --benchmark_format=json \
  --benchmark_min_time="${min_time}" >"${raw_json}"
"${build_dir}/bench/store" --benchmark_format=json \
  --benchmark_min_time="${min_time}" \
  --benchmark_filter='^BM_StoreIdleInvokeOverhead$' >"${raw_store_json}"

python3 - "${raw_json}" "${raw_store_json}" <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    raw = json.load(f)
with open(sys.argv[2]) as f:
    raw_store = json.load(f)
by_name = {b["name"]: b for b in raw["benchmarks"] + raw_store["benchmarks"]}

# A kernel arm is skipped (error_occurred) where the CPU lacks it.
def speedup(fast, slow):
    f, s = by_name.get(fast), by_name.get(slow)
    if f is None or s is None or f.get("error_occurred") or s.get("error_occurred"):
        return None
    return round(f["bytes_per_second"] / s["bytes_per_second"], 2)

def overhead(name):
    return round(by_name[name]["overhead_pct"], 2)

context = raw["context"]
record = {
    "host": context.get("host_name", "unknown"),
    "cpus": context["num_cpus"],
    "mhz_per_cpu": context["mhz_per_cpu"],
    "build_type": context.get("build_type", "unknown"),
    "chacha20_speedup_509": speedup("BM_ChaCha20/509", "BM_ChaCha20Seed/509"),
    "chacha20_speedup_8192": speedup("BM_ChaCha20/8192", "BM_ChaCha20Seed/8192"),
    "sha256_speedup_512": speedup("BM_Sha256Kernel/shani/512",
                                  "BM_Sha256Kernel/scalar/512"),
    "chacha20_avx512_speedup_1024": speedup("BM_ChaCha20Kernel/avx512",
                                            "BM_ChaCha20Kernel/avx2"),
    "poly1305_ifma_speedup_32k": speedup("BM_Poly1305Kernel/ifma/32768",
                                         "BM_Poly1305Kernel/scalar/32768"),
    "metrics_overhead_pct": overhead("BM_RelayMetricsOverhead"),
    "span_overhead_pct": overhead("BM_RelaySpanOverhead"),
    "chaos_idle_overhead_pct": overhead("BM_NetworkSendChaosIdleOverhead"),
    "store_idle_overhead_pct": overhead("BM_StoreIdleInvokeOverhead"),
    "relay_cells_per_sec": round(by_name["BM_RelayDatapath3Hop"]["items_per_second"]),
}
print(json.dumps(record))

floors = {
    "chacha20_speedup_509": 3.6,
    "chacha20_speedup_8192": 3.6,
    "sha256_speedup_512": 3.0,
    "chacha20_avx512_speedup_1024": 1.3,
    "poly1305_ifma_speedup_32k": 3.0,
}
ceilings = {
    "metrics_overhead_pct": 10.0,
    "span_overhead_pct": 15.0,
    "chaos_idle_overhead_pct": 2.0,
    "store_idle_overhead_pct": 2.0,
}
failures = [f"{k} = {record[k]} < {v}" for k, v in floors.items()
            if record[k] is not None and record[k] < v]
failures += [f"{k} = {record[k]} > {v}" for k, v in ceilings.items()
             if record[k] > v]
if failures:
    print("bench gates failed: " + "; ".join(failures), file=sys.stderr)
    sys.exit(1)
PY
