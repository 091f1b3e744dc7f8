// Cell-datapath benchmarks: the per-cell hot loop this repo's throughput
// story hangs on. Run via bench/run_benchmarks.sh, which distills the
// google-benchmark JSON into BENCH_datapath.json so every PR has a perf
// trajectory to compare against.
//
// Measured here:
//   * ChaCha20 keystream kernel, new (8-block SIMD) vs the seed scalar
//     byte-at-a-time kernel (inlined below as the fixed baseline);
//   * SHA-256 over 8 blocks: the scalar kernel vs Sha256 itself, which on a
//     SHA-NI host must have dispatched to the SHA-NI kernel;
//   * the full 3-hop relay-crypto datapath (origin onion-encrypt + three
//     relay peel/check stages) with heap allocations counted per cell —
//     the zero-allocation invariant of DESIGN.md §7;
//   * simulator event churn with typical captures, allocations per event;
//   * the network send path with idle chaos hooks vs none — the tax every
//     packet pays for fault-injection support when no plan is installed
//     (gated at zero extra allocations and <= 2% throughput).
//
// The global operator new/delete overrides below count every heap
// allocation in the binary; benchmarks report the per-iteration delta.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "chaos/chaos.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/kernels.hpp"
#include "crypto/sha256.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "tor/cell.hpp"
#include "tor/relaycrypto.hpp"
#include "tor/wire.hpp"
#include "util/rng.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// The replaced operator new below is malloc-backed, so pairing its result
// with std::free in operator delete is correct; GCC's heuristic can't see
// through the replacement and warns spuriously.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(al),
                                   (n + static_cast<std::size_t>(al) - 1) &
                                       ~(static_cast<std::size_t>(al) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) { return ::operator new(n, al); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace bc = bento::crypto;
namespace bt = bento::tor;
namespace bs = bento::sim;
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

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

namespace bo = bento::obs;

// Shared 3-hop circuit setup: origin seals for the exit and onion-encrypts
// all three layers; each relay peels its layer and runs recognition. Every
// hop's cipher and digest state advances exactly as on a live circuit.
struct Datapath3Hop {
  std::vector<bento::tor::LayerCrypto> origin;
  std::vector<bento::tor::LayerCrypto> relays;
  std::array<std::uint8_t, bento::tor::kCellPayloadLen> cell_template;
  std::uint64_t recognized_at_exit = 0;

  Datapath3Hop() {
    namespace bt = bento::tor;
    bento::util::Rng rng(3);
    std::array<bt::LayerKeys, 3> keys = {
        bt::LayerKeys::derive(rng.bytes(32), "hop0"),
        bt::LayerKeys::derive(rng.bytes(32), "hop1"),
        bt::LayerKeys::derive(rng.bytes(32), "hop2"),
    };
    for (int i = 0; i < 3; ++i) {
      origin.emplace_back(keys[static_cast<std::size_t>(i)]);
      relays.emplace_back(keys[static_cast<std::size_t>(i)]);
    }
    bt::RelayCell rc;
    rc.relay_cmd = bt::RelayCommand::Data;
    rc.stream_id = 7;
    rc.data = rng.bytes(bt::kRelayDataMax);
    cell_template = rc.pack();
  }

  void traverse() {
    auto payload = cell_template;
    origin[2].seal_forward(payload);
    for (int i = 2; i >= 0; --i) origin[static_cast<std::size_t>(i)].crypt_forward(payload);
    for (int hop = 0; hop < 3; ++hop) {
      auto& relay = relays[static_cast<std::size_t>(hop)];
      relay.crypt_forward(payload);
      if (relay.check_forward(payload)) {
        ++recognized_at_exit;
        break;
      }
    }
    benchmark::DoNotOptimize(payload.data());
  }
};

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

// One 1 KiB keystream refill per iteration on one kernel: the 8-block
// kernels (portable, AVX2) take two calls, the AVX-512 kernel one.
// run_benchmarks.sh gates avx512 against avx2 at 1.3x on AVX-512 hosts.
enum class ChaChaKernel { kPortable, kAvx2, kAvx512 };

static void BM_ChaCha20Kernel(benchmark::State& state, ChaChaKernel kernel) {
  bool supported = kernel == ChaChaKernel::kPortable;
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
      case ChaChaKernel::kPortable:
        bc::detail::chacha20_refill_portable(words.data(), block.data());
        words[12] += 8;
        bc::detail::chacha20_refill_portable(words.data(), block.data() + 512);
        words[12] += 8;
        break;
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
BENCHMARK_CAPTURE(BM_ChaCha20Kernel, portable, ChaChaKernel::kPortable);
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

// The whole 3-hop traversal must not touch the heap — with the metrics
// registry live (it is on by default; recognition counters fire per check).
static void BM_RelayDatapath3Hop(benchmark::State& state) {
  bo::set_metrics_enabled(true);
  Datapath3Hop path;
  path.traverse();  // warm-up: registers metric cells outside the counted region

  const std::uint64_t allocs_before = allocs();
  std::uint64_t cells = 0;
  for (auto _ : state) {
    path.traverse();
    ++cells;
  }
  const std::uint64_t allocs_delta = allocs() - allocs_before;

  state.SetItemsProcessed(static_cast<std::int64_t>(cells));
  state.SetBytesProcessed(static_cast<std::int64_t>(cells * bt::kCellPayloadLen));
  state.counters["allocs_per_cell"] = benchmark::Counter(
      static_cast<double>(allocs_delta) / static_cast<double>(cells ? cells : 1));
  state.counters["recognized"] =
      benchmark::Counter(static_cast<double>(path.recognized_at_exit));
}
BENCHMARK(BM_RelayDatapath3Hop);

// Same traversal with the registry globally disabled: the difference to
// BM_RelayDatapath3Hop is the whole cost of live metrics on the cell
// datapath (BENCH_obs.json asserts it stays in the noise).
static void BM_RelayDatapath3HopMetricsOff(benchmark::State& state) {
  Datapath3Hop path;
  path.traverse();
  bo::set_metrics_enabled(false);
  std::uint64_t cells = 0;
  for (auto _ : state) {
    path.traverse();
    ++cells;
  }
  bo::set_metrics_enabled(true);
  state.SetItemsProcessed(static_cast<std::int64_t>(cells));
  state.SetBytesProcessed(static_cast<std::int64_t>(cells * bt::kCellPayloadLen));
}
BENCHMARK(BM_RelayDatapath3HopMetricsOff);

// Traversal with the flight recorder armed and the per-cell trace points a
// relay emits (receive + recognition) recorded each cell. The ring is
// preallocated at enable(), so the traced datapath must stay allocation-free
// even while continuously wrapping.
static void BM_RelayDatapath3HopTraced(benchmark::State& state) {
  Datapath3Hop path;
  path.traverse();
  bo::recorder().enable(std::size_t{1} << 12);

  const std::uint64_t allocs_before = allocs();
  std::uint64_t cells = 0;
  for (auto _ : state) {
    bo::trace(bo::Ev::CellRecv, 42, 1);
    path.traverse();
    bo::trace(bo::Ev::CellRecognized, 42, 2);
    ++cells;
  }
  const std::uint64_t allocs_delta = allocs() - allocs_before;
  bo::recorder().disable();

  state.SetItemsProcessed(static_cast<std::int64_t>(cells));
  state.SetBytesProcessed(static_cast<std::int64_t>(cells * bt::kCellPayloadLen));
  state.counters["allocs_per_cell"] = benchmark::Counter(
      static_cast<double>(allocs_delta) / static_cast<double>(cells ? cells : 1));
}
BENCHMARK(BM_RelayDatapath3HopTraced);

// Traversal under an active causal span, exactly as the relay datapath runs
// when a traced request transits the hop: per cell, a SpanScope opens and
// closes a relay.forward span (SpanBegin + SpanEnd into the preallocated
// ring) nested under a live client.invoke root. Spans are POD events in the
// same ring, so this must hold the 0-allocs/cell line too — the span tracer
// is only shippable if tracing a request costs no heap on the cell path.
static void BM_RelayDatapath3HopSpanTraced(benchmark::State& state) {
  Datapath3Hop path;
  path.traverse();
  bo::recorder().enable(std::size_t{1} << 12);
  bo::reset_spans();
  // Root request context, as BentoConnection::invoke() establishes it.
  bo::SpanScope root(bo::SpanScope::kRoot, bo::Stage::ClientInvoke);

  const std::uint64_t allocs_before = allocs();
  std::uint64_t cells = 0;
  for (auto _ : state) {
    bo::SpanScope hop(bo::Stage::RelayForward, 42);
    path.traverse();
    ++cells;
  }
  const std::uint64_t allocs_delta = allocs() - allocs_before;
  bo::recorder().disable();

  state.SetItemsProcessed(static_cast<std::int64_t>(cells));
  state.SetBytesProcessed(static_cast<std::int64_t>(cells * bt::kCellPayloadLen));
  state.counters["allocs_per_cell"] = benchmark::Counter(
      static_cast<double>(allocs_delta) / static_cast<double>(cells ? cells : 1));
}
BENCHMARK(BM_RelayDatapath3HopSpanTraced);

// Raw registry handle costs: one pre-registered counter increment / histogram
// record per iteration. These are the budget every instrumentation point
// spends; BENCH_obs.json records the absolute ns.
static void BM_CounterIncrement(benchmark::State& state) {
  bo::Counter c = bo::registry().counter("bench.counter");
  for (auto _ : state) {
    c.inc();
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CounterIncrement);

static void BM_HistogramRecord(benchmark::State& state) {
  bo::Histogram h = bo::registry().histogram("bench.histogram");
  std::int64_t v = 0;
  for (auto _ : state) {
    h.record(v);
    v = (v + 977) % 1'200'000;  // sweep across all buckets
    benchmark::DoNotOptimize(h);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HistogramRecord);

static void BM_TraceRecord(benchmark::State& state) {
  bo::recorder().enable(std::size_t{1} << 12);
  std::uint32_t a = 0;
  const std::uint64_t allocs_before = allocs();
  for (auto _ : state) {
    bo::trace(bo::Ev::CellSend, a++, 7);
  }
  const std::uint64_t allocs_delta = allocs() - allocs_before;
  bo::recorder().disable();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["allocs_per_event"] = benchmark::Counter(
      static_cast<double>(allocs_delta) /
      static_cast<double>(state.iterations() ? state.iterations() : 1));
}
BENCHMARK(BM_TraceRecord);

// Cell framing/unframing for the wire: one allocation per framed cell (the
// owned wire buffer) is inherent; this tracks that it stays at exactly one.
static void BM_CellFrameUnframe(benchmark::State& state) {
  bt::Cell cell;
  cell.circ_id = 42;
  cell.command = bt::CellCommand::Relay;
  bu::Rng rng(4);
  const bu::Bytes fill = rng.bytes(bt::kCellPayloadLen);
  std::copy(fill.begin(), fill.end(), cell.payload.begin());

  const std::uint64_t allocs_before = allocs();
  std::uint64_t cells = 0;
  for (auto _ : state) {
    bu::Bytes wire = bt::frame_cell(cell);
    bt::Cell back = bt::unframe_cell(wire);
    benchmark::DoNotOptimize(back.payload.data());
    ++cells;
  }
  const std::uint64_t allocs_delta = allocs() - allocs_before;
  state.SetItemsProcessed(static_cast<std::int64_t>(cells));
  state.counters["allocs_per_cell"] = benchmark::Counter(
      static_cast<double>(allocs_delta) / static_cast<double>(cells ? cells : 1));
}
BENCHMARK(BM_CellFrameUnframe);

// Simulator event churn with a capture shaped like the network layer's
// delivery lambda (this + pointer + a few words): schedule a batch, run it.
// With the small-buffer event queue, steady state performs zero heap
// allocations per event.
static void BM_SimulatorEventChurn(benchmark::State& state) {
  bs::Simulator sim(1);
  constexpr int kBatch = 64;
  std::uint64_t sink = 0;

  // Warm the queue's vector capacity and the slab pool.
  for (int i = 0; i < kBatch; ++i) {
    sim.after(bu::Duration::micros(i), [&sink, i] { sink += static_cast<std::uint64_t>(i); });
  }
  sim.run();

  const std::uint64_t allocs_before = allocs();
  std::uint64_t events = 0;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      std::array<std::uint64_t, 5> ctx{};  // ~40-byte capture: inline storage
      ctx[0] = static_cast<std::uint64_t>(i);
      sim.after(bu::Duration::micros(i), [&sink, ctx] { sink += ctx[0]; });
    }
    sim.run();
    events += kBatch;
  }
  const std::uint64_t allocs_delta = allocs() - allocs_before;
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["allocs_per_event"] = benchmark::Counter(
      static_cast<double>(allocs_delta) / static_cast<double>(events ? events : 1));
}
BENCHMARK(BM_SimulatorEventChurn);

// ---- Chaos-idle guard ----------------------------------------------------
// The chaos engine taxes every Network::send with two node_down() probes and
// one on_packet() verdict even when no fault ever fires. This benchmark pair
// bounds that tax: BM_NetworkSendDatapath is the no-injector baseline,
// BM_NetworkSendDatapathChaosIdle runs the identical loop with a ChaosEngine
// installed under an empty plan. run_benchmarks.sh gates the delta — the
// idle hooks must add zero allocations per cell and cost at most 2% of send
// throughput.
namespace {

struct CountingSink : bs::MessageHandler {
  std::uint64_t received = 0;
  void on_message(bs::NodeId, bu::Bytes) override { ++received; }
};

struct NetSendHarness {
  bs::Simulator sim{1};
  bs::Network net{sim};
  CountingSink sink;
  bs::NodeId a;
  bs::NodeId b;
  bu::Bytes cell;

  NetSendHarness() {
    a = net.add_node({"a", 1e9, 1e9});
    b = net.add_node({"b", 1e9, 1e9}, &sink);
    net.set_latency(a, b, bu::Duration::micros(50));
    bu::Rng rng(5);
    cell = rng.bytes(bt::kCellLen);
  }

  // One inherent allocation per message: the owned wire buffer handed to
  // send(). Everything downstream — event queue, link queues — is pooled or
  // amortized identically in both variants.
  void batch(int n) {
    for (int i = 0; i < n; ++i) net.send(a, b, bu::Bytes(cell));
    sim.run();
  }
};

constexpr int kSendBatch = 64;
constexpr int kAllocProbeBatches = 32;

// Alloc accounting runs over a fixed batch count *outside* the timed loop so
// the per-cell figure is exact and iteration-count independent: both
// variants replay the same sequence from the same warm state, so any
// difference is precisely what the idle hooks allocate.
void run_net_send(benchmark::State& state, NetSendHarness& h) {
  h.batch(kSendBatch);  // warm-up: queue capacities, slab pool, deque chunks

  const std::uint64_t allocs_before = allocs();
  for (int i = 0; i < kAllocProbeBatches; ++i) h.batch(kSendBatch);
  const std::uint64_t allocs_delta = allocs() - allocs_before;

  std::uint64_t cells = 0;
  for (auto _ : state) {
    h.batch(kSendBatch);
    cells += kSendBatch;
  }

  state.SetItemsProcessed(static_cast<std::int64_t>(cells));
  state.counters["allocs_per_cell"] = benchmark::Counter(
      static_cast<double>(allocs_delta) /
      static_cast<double>(kAllocProbeBatches * kSendBatch));
  benchmark::DoNotOptimize(h.sink.received);
}

}  // namespace

static void BM_NetworkSendDatapath(benchmark::State& state) {
  NetSendHarness h;
  run_net_send(state, h);
}
BENCHMARK(BM_NetworkSendDatapath);

static void BM_NetworkSendDatapathChaosIdle(benchmark::State& state) {
  NetSendHarness h;
  bento::chaos::ChaosEngine engine(h.sim, h.net);
  engine.install({});  // hooks live, zero rules: the no-fault fast path
  run_net_send(state, h);
}
BENCHMARK(BM_NetworkSendDatapathChaosIdle);

// Paired A/B measurement for the 2% gate. Comparing two separately-timed
// benchmarks turns host drift (frequency scaling, a noisy neighbour landing
// on one of the two runs) into fake overhead far above 2%, so the variants
// alternate batch by batch inside one timed loop, the order flipping every
// iteration. The statistic is the ratio of per-batch *medians*: a scheduler
// preemption spikes one batch by milliseconds, which would dominate a mean
// but leaves a median untouched. run_benchmarks.sh gates overhead_pct.
static void BM_NetworkSendChaosIdleOverhead(benchmark::State& state) {
  NetSendHarness base;
  NetSendHarness idle;
  bento::chaos::ChaosEngine engine(idle.sim, idle.net);
  engine.install({});
  base.batch(kSendBatch);
  idle.batch(kSendBatch);

  using clock = std::chrono::steady_clock;
  std::vector<double> base_ns;
  std::vector<double> idle_ns;
  base_ns.reserve(1 << 20);
  idle_ns.reserve(1 << 20);
  bool base_first = true;
  std::uint64_t cells = 0;
  for (auto _ : state) {
    NetSendHarness& first = base_first ? base : idle;
    NetSendHarness& second = base_first ? idle : base;
    std::vector<double>& t_first = base_first ? base_ns : idle_ns;
    std::vector<double>& t_second = base_first ? idle_ns : base_ns;
    const auto t0 = clock::now();
    first.batch(kSendBatch);
    const auto t1 = clock::now();
    second.batch(kSendBatch);
    const auto t2 = clock::now();
    t_first.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count());
    t_second.push_back(std::chrono::duration<double, std::nano>(t2 - t1).count());
    base_first = !base_first;
    cells += 2 * kSendBatch;
  }

  auto median = [](std::vector<double>& v) {
    if (v.empty()) return 0.0;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2),
                     v.end());
    return v[v.size() / 2];
  };
  const double m_base = median(base_ns);
  const double m_idle = median(idle_ns);

  state.SetItemsProcessed(static_cast<std::int64_t>(cells));
  state.counters["overhead_pct"] = benchmark::Counter(
      m_base > 0 ? (m_idle - m_base) / m_base * 100.0 : 0.0);
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
