// Exact allocation invariants of the datapath (DESIGN.md §7, §8, §9, §15)
// and of BentoScript's augmented assignment.
// Each case warms up, then counts every heap allocation over a fixed batch,
// so the figure is exact and independent of host speed. The counting
// operator new below replaces the global one, which is why these cases are a
// test binary of their own. The fixtures are the ones bench/ times
// (bench/harness.hpp), except the Browser's page, which no bench times.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "chaos/chaos.hpp"
#include "functions/library.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "script/interp.hpp"
#include "script/parser.hpp"
#include "sim/simulator.hpp"
#include "tor/cell.hpp"
#include "tor/wire.hpp"
#include "util/rng.hpp"
#include "util/zlite.hpp"
#include "world_fixture.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};

// The sizes of the allocations of at least kBigAlloc bytes, in the order
// they were made (the first g_big_sizes.size() of them), so a case can
// count the page-sized buffers a batch makes.
constexpr std::size_t kBigAlloc = std::size_t{128} << 10;
std::array<std::size_t, 4096> g_big_sizes{};
std::atomic<std::uint64_t> g_big_allocs{0};

void count_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (n < kBigAlloc) return;
  const std::uint64_t i = g_big_allocs.fetch_add(1, std::memory_order_relaxed);
  if (i < g_big_sizes.size()) g_big_sizes[i] = n;
}
}  // namespace

// The replaced operator new below is malloc-backed, so pairing its result
// with std::free in operator delete is correct; GCC's heuristic can't see
// through the replacement and warns spuriously.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  count_alloc(n);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  count_alloc(n);
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

namespace bc = bento::core;
namespace bf = bento::functions;
namespace bo = bento::obs;
namespace bt = bento::tor;
namespace bu = bento::util;
using bento::bench::Datapath3Hop;
using bento::bench::NetSendHarness;
using bento::bench::StoreHarness;
using bento::bench::WorldHarness;

namespace {

/// Heap allocations made while `fn` runs.
template <class Fn>
std::uint64_t allocs_during(Fn&& fn) {
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  fn();
  return g_allocs.load(std::memory_order_relaxed) - before;
}

/// The sizes of the allocations of at least kBigAlloc bytes made while
/// `fn` runs, in order.
template <class Fn>
std::vector<std::size_t> big_allocs_during(Fn&& fn) {
  g_big_allocs.store(0, std::memory_order_relaxed);
  fn();
  const std::uint64_t n = g_big_allocs.load(std::memory_order_relaxed);
  EXPECT_LE(n, g_big_sizes.size()) << "only the first sizes are kept";
  return {g_big_sizes.begin(),
          g_big_sizes.begin() + static_cast<std::ptrdiff_t>(
                                    std::min<std::uint64_t>(n, g_big_sizes.size()))};
}

constexpr int kCells = 4096;

/// The stock Browser (padding 0) on an exit box, and one web server whose
/// page is kPageBytes long: a random prefix and a repeated HTML-ish tail,
/// shaped like wf::SiteModel::body_for. fetch() has the Browser fetch the
/// page once and runs the world until its compressed reply is in.
struct BrowserPageHarness {
  static constexpr std::size_t kPageBytes = 1'000'000;
  static constexpr std::size_t kRandomPrefix = std::size_t{32} << 10;

  bc::BentoWorld world{WorldHarness::options(/*persistent=*/false)};
  bc::BentoWorld::Client client;
  bu::Bytes page;
  std::optional<Deployed> browser;

  BrowserPageHarness() {
    page = bu::Rng(9).bytes(kRandomPrefix);
    const std::string tail = "<div class=\"c7\"><a href=\"/x\">item</a></div>\n";
    while (page.size() < kPageBytes) {
      const std::size_t take = std::min(tail.size(), kPageBytes - page.size());
      page.insert(page.end(), tail.begin(), tail.begin() + static_cast<std::ptrdiff_t>(take));
    }
    world.start();
    world.bed().add_web_server(bt::parse_addr("93.184.216.34"),
                               [this](const std::string&) { return page; });
    client = world.make_client("browser");
    browser.emplace(world, client, exit_box(world), bf::browser_manifest(),
                    bf::browser_source());
  }

  void fetch() {
    browser->conn->invoke(browser->tokens->invocation.bytes(),
                          bu::to_bytes("http://93.184.216.34/ 0"));
    world.run();
  }
};

}  // namespace

TEST(Alloc, RelayTraversalIsHeapFree) {
  // Metrics live, as by default: recognition counters fire per check.
  bo::set_metrics_enabled(true);
  Datapath3Hop path;
  path.traverse();  // registers the metric cells
  EXPECT_EQ(allocs_during([&] {
              for (int i = 0; i < kCells; ++i) path.traverse();
            }),
            0u)
      << "metrics live";

  // The flight recorder armed, with the two trace points a relay emits per
  // cell (receive, recognition). The ring is preallocated at enable(), so
  // wrapping it allocates nothing either.
  bo::recorder().enable(std::size_t{1} << 12);
  EXPECT_EQ(allocs_during([&] {
              for (int i = 0; i < kCells; ++i) {
                bo::trace(bo::Ev::CellRecv, 42, 1);
                path.traverse();
                bo::trace(bo::Ev::CellRecognized, 42, 2);
              }
            }),
            0u)
      << "flight recorder armed";

  // A traced request transiting the hop: per cell, a relay.forward span
  // (SpanBegin + SpanEnd into the ring) under a live client.invoke root.
  bo::reset_spans();
  {
    bo::SpanScope root(bo::SpanScope::kRoot, bo::Stage::ClientInvoke);
    EXPECT_EQ(allocs_during([&] {
                for (int i = 0; i < kCells; ++i) {
                  bo::SpanScope hop(bo::Stage::RelayForward, 42);
                  path.traverse();
                }
              }),
              0u)
        << "one span per cell";
  }
  bo::recorder().disable();
  EXPECT_EQ(path.recognized_at_exit, 1u + 3u * kCells);
}

TEST(Alloc, TraceRecordIsHeapFree) {
  constexpr std::size_t kRing = std::size_t{1} << 12;
  bo::recorder().enable(kRing);
  // Four times around the ring: each record overwrites the oldest in place.
  EXPECT_EQ(allocs_during([] {
              for (std::uint32_t a = 0; a < 4 * kRing; ++a) {
                bo::trace(bo::Ev::CellSend, a, 7);
              }
            }),
            0u);
  bo::recorder().disable();
}

TEST(Alloc, SimulatorChurnIsHeapFree) {
  constexpr int kBatch = 64;
  bento::sim::Simulator sim(1);
  std::uint64_t sink = 0;
  // A capture shaped like the network layer's delivery lambda: 40 bytes of
  // context fit the event's inline storage.
  auto batch = [&] {
    for (int i = 0; i < kBatch; ++i) {
      std::array<std::uint64_t, 5> ctx{};
      ctx[0] = static_cast<std::uint64_t>(i);
      sim.after(bu::Duration::micros(i), [&sink, ctx] { sink += ctx[0]; });
    }
    sim.run();
  };
  batch();  // grows the key heap and the slot pool to one batch
  EXPECT_EQ(allocs_during([&] {
              for (int b = 0; b < kBatch; ++b) batch();
            }),
            0u);
  EXPECT_EQ(sink, (1u + kBatch) * (kBatch * (kBatch - 1) / 2));
}

TEST(Alloc, WarmLinkSendAllocatesOnlyTheWireBuffer) {
  // Per message, the caller's owned wire buffer and nothing else: the
  // per-peer link queues reuse their ring slots and the serialization and
  // propagation events borrow pooled slabs once the first batch has grown
  // them.
  constexpr int kBatch = 64;
  constexpr int kBatches = 32;
  NetSendHarness h;
  h.batch(kBatch);
  EXPECT_EQ(allocs_during([&] {
              for (int i = 0; i < kBatches; ++i) h.batch(kBatch);
            }),
            std::uint64_t{kBatch} * kBatches);
  EXPECT_EQ(h.sink.received, std::uint64_t{kBatch} * (1 + kBatches));
}

TEST(Alloc, IdleChaosHooksAddNoSendAllocations) {
  // Each message allocates only its owned wire buffer once the link is warm
  // (WarmLinkSendAllocatesOnlyTheWireBuffer); an installed engine with an
  // empty plan must add nothing to that.
  constexpr int kBatch = 64;
  constexpr int kBatches = 32;
  NetSendHarness base;
  NetSendHarness idle;
  bento::chaos::ChaosEngine engine(idle.sim, idle.net);
  engine.install({});
  base.batch(kBatch);
  idle.batch(kBatch);
  auto count = [](NetSendHarness& h) {
    return allocs_during([&] {
      for (int i = 0; i < kBatches; ++i) h.batch(kBatch);
    });
  };
  const std::uint64_t base_allocs = count(base);
  const std::uint64_t idle_allocs = count(idle);
  EXPECT_GE(base_allocs, std::uint64_t{kBatch} * kBatches);
  EXPECT_EQ(idle_allocs, base_allocs);
  EXPECT_EQ(idle.sink.received, base.sink.received);
}

TEST(Alloc, CellFrameUnframeAllocatesOnlyTheWireBuffer) {
  bt::Cell cell;
  cell.circ_id = 42;
  cell.command = bt::CellCommand::Relay;
  bu::Rng rng(4);
  const bu::Bytes fill = rng.bytes(bt::kCellPayloadLen);
  std::copy(fill.begin(), fill.end(), cell.payload.begin());
  int round_trips = 0;
  EXPECT_EQ(allocs_during([&] {
              for (int i = 0; i < kCells; ++i) {
                const bu::Bytes wire = bt::frame_cell(cell);
                const bt::Cell back = bt::unframe_cell(wire);
                round_trips += back.payload == cell.payload;
              }
            }),
            std::uint64_t{kCells});
  EXPECT_EQ(round_trips, kCells);
}

TEST(Alloc, SealedSteadyStateAppendIsHeapFree) {
  constexpr int kPaths = 64;
  for (const std::size_t payload : {std::size_t{512}, std::size_t{4096}}) {
    // 16 MiB segments keep the warm-up and the counted batch inside the
    // first, pre-reserved segment: a segment roll allocates by design.
    StoreHarness h(payload, kPaths, /*sealed=*/true, 16ull << 20);
    h.batch(2 * kPaths);  // index entries
    EXPECT_EQ(allocs_during([&] { h.batch(16 * kPaths); }), 0u)
        << payload << " B bodies";
  }
}

TEST(Alloc, EchoInvokeAllocationCount) {
  // Exactly 8 allocations per invoke through the whole stack, client to
  // function and back; each names its owner:
  //   1. BentoConnection::invoke: the Invoke frame (StreamFramer::frame, one
  //      buffer of exactly the frame's size, moved into the stream's queue);
  //   2. Container::handle_invoke: the payload's one owned copy, which moves
  //      on into the script's argument;
  //   3. Value::bytes: the shared node that takes that copy over as the
  //      script's immutable bytes value;
  //   4. ScriptFunction::on_message: the one-element argument vector;
  //   5. the interpreter's call frame: the map node binding `msg`;
  //   6. the interpreter's eval_call: the argument vector of `api.send(msg)`,
  //      whose Value shares `msg`'s buffer;
  //   7. Container::send: the Output frame (StreamFramer::frame);
  //   8. BentoConnection: the Bytes the output handler receives.
  // Cells ride recycled link frames at both circuit ends, relays forward the
  // frame that arrived, and the link queues, event slabs, framer buffers and
  // stream queues reuse their storage once warm. SENDMEs shift the pools'
  // balance with a period of 25 batches (a stream SENDME every 50 cells, a
  // circuit SENDME every 100, 8 cells per batch), so one full period warms
  // every pool to its high-water mark and another is counted.
  constexpr int kBatch = 8;
  constexpr int kPeriod = 25;
  WorldHarness h(/*persistent=*/false);
  ASSERT_TRUE(h.tokens);
  for (int i = 0; i < kPeriod; ++i) h.batch(kBatch);
  EXPECT_EQ(allocs_during([&] {
              for (int i = 0; i < kPeriod; ++i) h.batch(kBatch);
            }),
            8u * kBatch * kPeriod);
  EXPECT_EQ(h.received, 2u * kBatch * kPeriod);
}

TEST(Alloc, IdleStoreMountAddsNoInvokeAllocations) {
  constexpr int kBatch = 8;
  constexpr int kBatches = 16;
  WorldHarness base(/*persistent=*/false);
  WorldHarness mounted(/*persistent=*/true);
  ASSERT_TRUE(base.tokens && mounted.tokens);
  base.batch(kBatch);
  mounted.batch(kBatch);
  auto count = [](WorldHarness& h) {
    return allocs_during([&] {
      for (int i = 0; i < kBatches; ++i) h.batch(kBatch);
    });
  };
  const std::uint64_t base_allocs = count(base);
  const std::uint64_t mounted_allocs = count(mounted);
  EXPECT_GT(base_allocs, 0u);
  EXPECT_EQ(mounted_allocs, base_allocs);
  EXPECT_EQ(base.received, std::uint64_t{kBatch} * (1 + kBatches));
  EXPECT_EQ(mounted.received, base.received);
}

TEST(Alloc, BrowserPageCrossesTheBoxOnce) {
  // Per page, exactly 2 allocations of the page's size or more, and none
  // other of 128 KiB or more; each names its owner:
  //   1. the web server fixture: the copy of the page its content callback
  //      returns;
  //   2. Container::http_get: the fetch body, joined at the end of the fetch
  //      from 64 KiB blocks into one buffer of exactly the body's size.
  // The page then crosses the box by reference: net.get's callback takes
  // the body over as one shared bytes value, which `body == None` and
  // `zlib.compress(body)` read in place. The compressed reply (a little over
  // the 32 KiB random prefix) and every buffer it passes through stay below
  // 128 KiB. A body grown by doubling would add 128, 256 and 512 KiB and
  // 1 MiB buffers; an interpreter that copied bytes on every read would add
  // two more copies of the page.
  constexpr std::size_t kPage = BrowserPageHarness::kPageBytes;
  constexpr int kWarm = 2;
  constexpr int kPages = 4;
  BrowserPageHarness h;
  ASSERT_TRUE(h.browser->tokens) << h.browser->error;
  for (int i = 0; i < kWarm; ++i) h.fetch();
  const std::vector<std::size_t> big = big_allocs_during([&] {
    for (int i = 0; i < kPages; ++i) h.fetch();
  });
  std::string sizes;
  for (const std::size_t n : big) sizes += " " + std::to_string(n);
  EXPECT_EQ(std::count_if(big.begin(), big.end(), [](std::size_t n) { return n >= kPage; }),
            2 * kPages)
      << "allocations of 128 KiB or more:" << sizes;
  EXPECT_EQ(big.size(), 2u * kPages) << "allocations of 128 KiB or more:" << sizes;
  const std::vector<bu::Bytes>& replies = h.browser->outputs;
  ASSERT_EQ(replies.size(), std::size_t{kWarm + kPages});
  EXPECT_LT(replies.back().size(), kBigAlloc);
  EXPECT_EQ(bu::zlite::decompress(replies.back()), h.page);
}

TEST(Alloc, NestedDefCostsTheSameOnEveryCall) {
  // A `def` inside a function runs on every call. The program owns every
  // FunctionDef for the interpreter's lifetime, so running one records
  // nothing per call and equal windows of calls allocate equally. A record
  // kept per run, grown by doubling, would reallocate on call 4,096: inside
  // the second window below and not the first.
  bento::script::Interpreter interp(bento::script::parse(
      "def on_message(msg):\n"
      "    def helper(x):\n"
      "        return x\n"
      "    return helper(msg)\n"));
  interp.run();
  const auto calls = [&](int n) {
    return allocs_during([&] {
      for (int i = 0; i < n; ++i) {
        interp.call("on_message", {bento::script::Value::integer(i)});
      }
    });
  };
  calls(2048);
  const std::uint64_t first = calls(1024);  // calls 2,049-3,072
  EXPECT_EQ(calls(1024), first);            // calls 3,073-4,096
}

TEST(Alloc, AugmentedAssignCostsWhatTheLongFormCosts) {
  // `x += e` and `x = x + e` run through one operator, so 1,000 iterations
  // of each allocate as often and take as many interpreter steps.
  struct Cost {
    std::uint64_t allocs;
    std::uint64_t steps;
  };
  const auto cost = [](const std::string& statement) {
    bento::script::Interpreter interp(
        bento::script::parse("x = 0\nfor i in range(1000):\n    " + statement + "\n"));
    bento::script::install_stdlib(interp);
    const std::uint64_t allocs = allocs_during([&] { interp.run(); });
    EXPECT_EQ(interp.global("x").as_int(), 1000) << statement;
    return Cost{allocs, interp.steps()};
  };
  const Cost augmented = cost("x += 1");
  const Cost longhand = cost("x = x + 1");
  EXPECT_EQ(augmented.allocs, longhand.allocs);
  EXPECT_EQ(augmented.steps, longhand.steps);
}
