// Sealed blob-store benchmark (DESIGN.md §15): what an idle persistent-store
// mount costs the invoke datapath. bench/run_benchmarks.sh gates it at 2%
// (paired, bench/paired.hpp); the zero-allocation steady-state append and
// replay determinism are tier-1 tests (tests/alloc_test.cpp,
// tests/store_test.cpp).
#include <benchmark/benchmark.h>

#include <cstdint>

#include "harness.hpp"
#include "paired.hpp"

using bento::bench::paired_overhead_pct;
using bento::bench::WorldHarness;

// Echo invokes in 8-invoke batches on two worlds, persistent_store off vs on.
// The function never touches fs.*, so the mounted store is a pure bystander;
// run_benchmarks.sh gates overhead_pct at 2%.
static void BM_StoreIdleInvokeOverhead(benchmark::State& state) {
  constexpr int kInvokeBatch = 8;
  WorldHarness base(/*persistent=*/false);
  WorldHarness mounted(/*persistent=*/true);
  base.batch(kInvokeBatch);
  mounted.batch(kInvokeBatch);
  state.counters["overhead_pct"] = paired_overhead_pct(
      state, [&] { base.batch(kInvokeBatch); },
      [&] { mounted.batch(kInvokeBatch); });
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 * kInvokeBatch);
  state.counters["echo_outputs"] = benchmark::Counter(
      static_cast<double>(base.received + mounted.received));
}
BENCHMARK(BM_StoreIdleInvokeOverhead);

BENCHMARK_MAIN();
