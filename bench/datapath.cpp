// Cell-datapath benchmarks: the per-cell hot loop this repo's throughput
// story hangs on. bench/run_benchmarks.sh turns them into ratios measured
// inside one run and gates those; the exact allocation invariants of the
// same loops run in tier-1 (tests/alloc_test.cpp).
//
// Measured here:
//   * ChaCha20 keystream kernel, new (SIMD) vs the seed scalar
//     byte-at-a-time kernel (inlined below as the fixed baseline), and one
//     1 KiB refill on each of the AVX2 and AVX-512 kernels;
//   * SHA-256 over 8 blocks: the scalar kernel vs Sha256 itself, which on a
//     SHA-NI host must have dispatched to the SHA-NI kernel;
//   * Poly1305 over 32 KiB: the scalar block loop vs crypto::poly1305, which
//     on an AVX-512 IFMA host must have dispatched to the IFMA kernel;
//   * the full 3-hop relay-crypto datapath (origin onion-encrypt + three
//     relay peel/check stages), and what live metrics and a per-cell span
//     add to it (paired, bench/paired.hpp);
//   * what idle chaos hooks add to the network send path (paired).
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <vector>

#include "chaos/chaos.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/kernels.hpp"
#include "crypto/poly1305.hpp"
#include "crypto/sha256.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "paired.hpp"
#include "tor/cell.hpp"
#include "util/rng.hpp"

namespace bc = bento::crypto;
namespace bt = bento::tor;
namespace bu = bento::util;

namespace {

// ---- Seed baseline: the original scalar byte-at-a-time ChaCha20 ---------
// Kept verbatim (modulo naming) so the speedup of the production kernel is
// measured against a fixed reference inside the same binary/flags.
class SeedChaCha20 {
 public:
  SeedChaCha20(const bc::ChaChaKey& key, const bc::ChaChaNonce& nonce,
               std::uint32_t counter = 0) {
    auto load32 = [](const std::uint8_t* p) {
      return static_cast<std::uint32_t>(p[0]) |
             static_cast<std::uint32_t>(p[1]) << 8 |
             static_cast<std::uint32_t>(p[2]) << 16 |
             static_cast<std::uint32_t>(p[3]) << 24;
    };
    state_[0] = 0x61707865;
    state_[1] = 0x3320646e;
    state_[2] = 0x79622d32;
    state_[3] = 0x6b206574;
    for (int i = 0; i < 8; ++i) state_[4 + i] = load32(key.data() + 4 * i);
    state_[12] = counter;
    for (int i = 0; i < 3; ++i) state_[13 + i] = load32(nonce.data() + 4 * i);
  }

  void process(std::vector<std::uint8_t>& data) {
    for (auto& byte : data) {
      if (used_ == 64) refill();
      byte ^= block_[used_++];
    }
  }

 private:
  static std::uint32_t rotl(std::uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }
  static void qr(std::array<std::uint32_t, 16>& s, int a, int b, int c, int d) {
    s[a] += s[b]; s[d] ^= s[a]; s[d] = rotl(s[d], 16);
    s[c] += s[d]; s[b] ^= s[c]; s[b] = rotl(s[b], 12);
    s[a] += s[b]; s[d] ^= s[a]; s[d] = rotl(s[d], 8);
    s[c] += s[d]; s[b] ^= s[c]; s[b] = rotl(s[b], 7);
  }
  void refill() {
    std::array<std::uint32_t, 16> x = state_;
    for (int round = 0; round < 10; ++round) {
      qr(x, 0, 4, 8, 12); qr(x, 1, 5, 9, 13); qr(x, 2, 6, 10, 14); qr(x, 3, 7, 11, 15);
      qr(x, 0, 5, 10, 15); qr(x, 1, 6, 11, 12); qr(x, 2, 7, 8, 13); qr(x, 3, 4, 9, 14);
    }
    for (int i = 0; i < 16; ++i) {
      const std::uint32_t v = x[i] + state_[i];
      block_[4 * i] = static_cast<std::uint8_t>(v);
      block_[4 * i + 1] = static_cast<std::uint8_t>(v >> 8);
      block_[4 * i + 2] = static_cast<std::uint8_t>(v >> 16);
      block_[4 * i + 3] = static_cast<std::uint8_t>(v >> 24);
    }
    state_[12] += 1;
    used_ = 0;
  }
  std::array<std::uint32_t, 16> state_;
  std::array<std::uint8_t, 64> block_;
  std::size_t used_ = 64;
};

namespace bo = bento::obs;
using bento::bench::Datapath3Hop;
using bento::bench::NetSendHarness;
using bento::bench::paired_overhead_pct;

}  // namespace

static void BM_ChaCha20Seed(benchmark::State& state) {
  bu::Rng rng(2);
  bu::Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  SeedChaCha20 cipher(bc::ChaChaKey{}, bc::ChaChaNonce{});
  for (auto _ : state) {
    cipher.process(data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ChaCha20Seed)->Arg(509)->Arg(8192);

static void BM_ChaCha20(benchmark::State& state) {
  bu::Rng rng(2);
  bu::Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  bc::ChaCha20 cipher(bc::ChaChaKey{}, bc::ChaChaNonce{});
  for (auto _ : state) {
    cipher.process(data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ChaCha20)->Arg(509)->Arg(8192);

// One 1 KiB keystream refill per iteration on one kernel: the 8-block AVX2
// kernel takes two calls, the AVX-512 kernel one. run_benchmarks.sh gates
// avx512 against avx2 at 1.3x on AVX-512 hosts.
enum class ChaChaKernel { kAvx2, kAvx512 };

static void BM_ChaCha20Kernel(benchmark::State& state, ChaChaKernel kernel) {
  bool supported = false;
#if BENTO_X86_KERNELS
  if (kernel == ChaChaKernel::kAvx2) supported = __builtin_cpu_supports("avx2");
#endif
#if BENTO_CHACHA_AVX512
  if (kernel == ChaChaKernel::kAvx512) {
    supported = __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vl") &&
                __builtin_cpu_supports("avx512bw");
  }
#endif
  if (!supported) {
    state.SkipWithError("CPU or compiler lacks this ChaCha20 kernel");
    return;
  }
  bu::Rng rng(6);
  std::array<std::uint32_t, 16> words{};
  for (auto& w : words) w = static_cast<std::uint32_t>(rng.next_u64());
  alignas(64) std::array<std::uint8_t, 1024> block{};
  for (auto _ : state) {
    switch (kernel) {
      case ChaChaKernel::kAvx2:
#if BENTO_X86_KERNELS
        bc::detail::chacha20_refill_avx2(words.data(), block.data());
        words[12] += 8;
        bc::detail::chacha20_refill_avx2(words.data(), block.data() + 512);
        words[12] += 8;
#endif
        break;
      case ChaChaKernel::kAvx512:
#if BENTO_CHACHA_AVX512
        bc::detail::chacha20_refill_avx512(words.data(), block.data());
        words[12] += 16;
#endif
        break;
    }
    benchmark::DoNotOptimize(block.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK_CAPTURE(BM_ChaCha20Kernel, avx2, ChaChaKernel::kAvx2);
BENCHMARK_CAPTURE(BM_ChaCha20Kernel, avx512, ChaChaKernel::kAvx512);

// SHA-256 of a 512 B run (8 blocks). The scalar arm calls the fallback
// kernel directly; the shani arm hashes through Sha256, so it times whatever
// the startup dispatch picked. run_benchmarks.sh gates shani/scalar at 3x on
// SHA-NI hosts, which a broken kernel or a broken dispatch would both fail.
static void BM_Sha256Kernel(benchmark::State& state, bool through_dispatch) {
  if (through_dispatch) {
#if BENTO_X86_KERNELS
    const bool has_sha = __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
#else
    const bool has_sha = false;
#endif
    if (!has_sha) {
      state.SkipWithError("CPU lacks the SHA extensions");
      return;
    }
  }
  bu::Rng rng(4);
  const bu::Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  bc::Sha256 hasher;
  std::array<std::uint32_t, 8> chain{};
  for (auto _ : state) {
    if (through_dispatch) {
      hasher.update(data);
    } else {
      bc::detail::sha256_blocks_scalar(chain, data.data(), data.size() / 64);
    }
    benchmark::DoNotOptimize(&hasher);
    benchmark::DoNotOptimize(chain.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK_CAPTURE(BM_Sha256Kernel, scalar, false)->Arg(512);
BENCHMARK_CAPTURE(BM_Sha256Kernel, shani, true)->Arg(512);

// Poly1305 of a 32 KiB body, FS-Protect's size class. The scalar arm calls
// the block loop directly; the ifma arm MACs through crypto::poly1305, so it
// times whatever the startup dispatch picked. run_benchmarks.sh gates
// ifma/scalar at 3x on IFMA hosts.
static void BM_Poly1305Kernel(benchmark::State& state, bool through_dispatch) {
  if (through_dispatch) {
#if BENTO_X86_KERNELS
    const bool has_ifma =
        __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512ifma");
#else
    const bool has_ifma = false;
#endif
    if (!has_ifma) {
      state.SkipWithError("CPU lacks AVX-512 IFMA");
      return;
    }
  }
  bu::Rng rng(5);
  const bu::Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  bc::Poly1305Key key{};
  const bu::Bytes key_bytes = rng.bytes(key.size());
  std::copy(key_bytes.begin(), key_bytes.end(), key.begin());
  bc::detail::Poly1305Limbs limbs;  // a clamped r, split 44/44/42
  limbs.r[0] = rng.next_u64() & 0xffc0fffffff;
  limbs.r[1] = rng.next_u64() & 0xfffffc0ffff;
  limbs.r[2] = rng.next_u64() & 0x00ffffffc0f;
  bc::Poly1305Tag tag{};
  for (auto _ : state) {
    if (through_dispatch) {
      tag = bc::poly1305(key, data);
    } else {
      bc::detail::poly1305_blocks_scalar(limbs, data.data(), data.size() / 16,
                                         std::uint64_t{1} << 40);
    }
    benchmark::DoNotOptimize(tag.data());
    benchmark::DoNotOptimize(limbs.h);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK_CAPTURE(BM_Poly1305Kernel, scalar, false)->Arg(32768);
BENCHMARK_CAPTURE(BM_Poly1305Kernel, ifma, true)->Arg(32768);

// The 3-hop traversal with the metrics registry live (it is on by default;
// recognition counters fire per check). run_benchmarks.sh records cells/s.
static void BM_RelayDatapath3Hop(benchmark::State& state) {
  bo::set_metrics_enabled(true);
  Datapath3Hop path;
  path.traverse();  // registers the metric cells
  for (auto _ : state) {
    path.traverse();
    benchmark::DoNotOptimize(path.recognized_at_exit);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bt::kCellPayloadLen));
}
BENCHMARK(BM_RelayDatapath3Hop);

namespace {

constexpr int kRelayBatch = 32;

void relay_batch(Datapath3Hop& path) {
  for (int i = 0; i < kRelayBatch; ++i) path.traverse();
  benchmark::DoNotOptimize(path.recognized_at_exit);
}

}  // namespace

// What live metrics cost the cell datapath: 32-cell batches with the
// registry disabled vs live. run_benchmarks.sh gates overhead_pct at 10%.
static void BM_RelayMetricsOverhead(benchmark::State& state) {
  bo::set_metrics_enabled(true);
  Datapath3Hop path;
  path.traverse();
  state.counters["overhead_pct"] = paired_overhead_pct(
      state,
      [&] {
        bo::set_metrics_enabled(false);
        relay_batch(path);
        bo::set_metrics_enabled(true);
      },
      [&] { relay_batch(path); });
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 * kRelayBatch);
}
BENCHMARK(BM_RelayMetricsOverhead);

// What a traced request costs the cell datapath: per cell, a SpanScope opens
// and closes a relay.forward span (SpanBegin + SpanEnd into the ring) under a
// live client.invoke root, as when a traced request transits the hop.
// run_benchmarks.sh gates overhead_pct at 15%.
static void BM_RelaySpanOverhead(benchmark::State& state) {
  Datapath3Hop path;
  path.traverse();
  bo::recorder().enable(std::size_t{1} << 12);
  bo::reset_spans();
  {
    // Root request context, as BentoConnection::invoke() establishes it.
    bo::SpanScope root(bo::SpanScope::kRoot, bo::Stage::ClientInvoke);
    state.counters["overhead_pct"] = paired_overhead_pct(
        state, [&] { relay_batch(path); },
        [&] {
          for (int i = 0; i < kRelayBatch; ++i) {
            bo::SpanScope hop(bo::Stage::RelayForward, 42);
            path.traverse();
          }
          benchmark::DoNotOptimize(path.recognized_at_exit);
        });
  }
  bo::recorder().disable();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 * kRelayBatch);
}
BENCHMARK(BM_RelaySpanOverhead);

// The chaos engine taxes every Network::send with two node_down() probes and
// one on_packet() verdict even when no fault ever fires. Two harnesses, one
// with a ChaosEngine installed under an empty plan, send 64-cell batches;
// run_benchmarks.sh gates overhead_pct at 2%.
static void BM_NetworkSendChaosIdleOverhead(benchmark::State& state) {
  constexpr int kSendBatch = 64;
  NetSendHarness base;
  NetSendHarness idle;
  bento::chaos::ChaosEngine engine(idle.sim, idle.net);
  engine.install({});  // hooks live, zero rules: the no-fault fast path
  base.batch(kSendBatch);
  idle.batch(kSendBatch);
  state.counters["overhead_pct"] = paired_overhead_pct(
      state, [&] { base.batch(kSendBatch); }, [&] { idle.batch(kSendBatch); });
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 * kSendBatch);
  benchmark::DoNotOptimize(base.sink.received);
  benchmark::DoNotOptimize(idle.sink.received);
}
BENCHMARK(BM_NetworkSendChaosIdleOverhead);

// BENCHMARK_MAIN plus this repo's CMake build type: google-benchmark's own
// context only knows how the benchmark library was built.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("build_type", BENTO_BUILD_TYPE);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
