// Sealed blob-store benchmarks (DESIGN.md §15): sealed vs plaintext append
// throughput, replay MB/s over a mixed put/remove/overwrite log, compaction
// with the fraction of the log it reclaims, and what an idle persistent-store
// mount costs the invoke datapath. bench/run_benchmarks.sh gates that last
// one at 2% (paired, bench/paired.hpp); the zero-allocation steady-state
// append and replay determinism are tier-1 tests (tests/alloc_test.cpp,
// tests/store_test.cpp).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <optional>
#include <string>

#include "harness.hpp"
#include "paired.hpp"
#include "store/sealer.hpp"
#include "store/store.hpp"
#include "store/volume.hpp"
#include "util/rng.hpp"

namespace bst = bento::store;
namespace bu = bento::util;
using bento::bench::paired_overhead_pct;
using bento::bench::store_key;
using bento::bench::StoreHarness;
using bento::bench::WorldHarness;

// ---- Append path ---------------------------------------------------------

namespace {

constexpr int kAppendBatch = 64;
constexpr std::size_t kAppendPaths = 64;
// Large segments roll rarely, so the loop times appends, not segment setup.
constexpr std::size_t kAppendSegmentBytes = 16ull << 20;

// During the timed loop, compaction (the store's own background duty) runs
// when the garbage ratio asks for it, but paused: it has its own benchmark
// below.
void run_append(benchmark::State& state, StoreHarness& h) {
  // Two full rounds build the index entries, LRU nodes and cache buffers;
  // from then on every put is an overwrite in place.
  h.batch(static_cast<int>(2 * h.paths.size()));
  std::uint64_t appends = 0;
  for (auto _ : state) {
    h.batch(kAppendBatch);
    appends += kAppendBatch;
    if (h.blobs->wants_compaction()) {
      state.PauseTiming();
      h.blobs->compact();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(appends));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(appends * h.payload.size()));
}

}  // namespace

static void BM_StoreAppend(benchmark::State& state) {
  StoreHarness h(static_cast<std::size_t>(state.range(0)), kAppendPaths,
                 /*sealed=*/true, kAppendSegmentBytes);
  run_append(state, h);
}
BENCHMARK(BM_StoreAppend)->Arg(512)->Arg(4096);

static void BM_StoreAppendPlain(benchmark::State& state) {
  StoreHarness h(static_cast<std::size_t>(state.range(0)), kAppendPaths,
                 /*sealed=*/false, kAppendSegmentBytes);
  run_append(state, h);
}
BENCHMARK(BM_StoreAppendPlain)->Arg(4096);

// ---- Replay --------------------------------------------------------------

namespace {

/// A synced log with history: overwrites, removes, re-adds — so replay
/// exercises index churn, not just inserts.
struct ReplayFixture {
  bst::Volume volume;
  bst::StoreOptions opts;

  ReplayFixture() {
    opts.segment_bytes = 64 * 1024;
    bst::BlobStore store(volume, bst::make_chapoly_sealer(store_key()), opts);
    store.replay();
    bu::Rng rng(13);
    for (int round = 0; round < 6; ++round) {
      for (int i = 0; i < 64; ++i) {
        store.put("blob/" + std::to_string(i),
                  rng.bytes(100 + (static_cast<std::size_t>(i) * 37 +
                                   static_cast<std::size_t>(round) * 211) % 1900));
      }
      for (int i = 0; i < 8; ++i) {
        store.remove("blob/" + std::to_string((round * 8 + i) % 64));
      }
    }
  }
};

}  // namespace

static void BM_StoreReplay(benchmark::State& state) {
  ReplayFixture fx;
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    bst::BlobStore store(fx.volume, bst::make_chapoly_sealer(store_key()),
                         fx.opts);
    const bst::ReplayReport report = store.replay();
    frames += report.frames;
    bytes += report.bytes;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(frames));
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_StoreReplay);

// ---- Compaction ----------------------------------------------------------

// Each iteration compacts a freshly grown log (~12 overwrite rounds over 32
// paths in 32 KiB segments — garbage well past the threshold); the rebuild
// happens under PauseTiming so only compact() is on the clock. Throughput is
// stated over the *sealed* (non-active) bytes — the part of the log the
// compactor actually walks and rewrites.
static void BM_StoreCompact(benchmark::State& state) {
  std::optional<StoreHarness> h;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_reclaimed = 0;
  for (auto _ : state) {
    state.PauseTiming();
    h.emplace(/*payload_bytes=*/512, /*n_paths=*/32, /*sealed=*/true,
              /*segment_bytes=*/32 * 1024);
    h->batch(32 * 12);
    std::uint64_t sealed_before = 0;
    const auto& segments = h->volume.segments();
    for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
      sealed_before += segments[i].data.size();
    }
    const std::uint64_t log_before = h->blobs->log_bytes();
    state.ResumeTiming();
    h->blobs->compact();
    bytes_in += sealed_before;
    bytes_reclaimed += log_before - h->blobs->log_bytes();
  }
  // No bytes_per_second here: compaction copies *live* records and skips
  // dead ones without touching their bytes, so a log-sized denominator would
  // overstate it wildly. items == compactions; the counters say how much
  // sealed log each one disposed of and what fraction came back.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["sealed_bytes_per_compaction"] = benchmark::Counter(
      static_cast<double>(bytes_in) / static_cast<double>(state.iterations()));
  state.counters["reclaimed_ratio"] = benchmark::Counter(
      bytes_in > 0 ? static_cast<double>(bytes_reclaimed) /
                         static_cast<double>(bytes_in)
                   : 0.0);
}
BENCHMARK(BM_StoreCompact);

// ---- Idle-store datapath tax ---------------------------------------------

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
