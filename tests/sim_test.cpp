#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "chaos/chaos.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/bytes.hpp"

namespace bch = bento::chaos;
namespace bo = bento::obs;
namespace bs = bento::sim;
namespace bu = bento::util;
using bu::Duration;
using bu::Time;

TEST(Simulator, OrdersEventsByTime) {
  bs::Simulator sim(1);
  std::vector<int> order;
  sim.at(Time::from_seconds(2), [&] { order.push_back(2); });
  sim.at(Time::from_seconds(1), [&] { order.push_back(1); });
  sim.at(Time::from_seconds(3), [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now().seconds(), 3.0);
}

TEST(Simulator, FifoTieBreakAtSameTime) {
  bs::Simulator sim(1);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.at(Time::from_seconds(1), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, NestedScheduling) {
  bs::Simulator sim(1);
  int fired = 0;
  sim.after(Duration::seconds(1), [&] {
    sim.after(Duration::seconds(1), [&] { fired = 1; });
  });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now().seconds(), 2.0);
}

TEST(Simulator, PastEventsClampToNow) {
  bs::Simulator sim(1);
  sim.after(Duration::seconds(5), [] {});
  sim.run();
  bool fired = false;
  sim.at(Time::from_seconds(1), [&] { fired = true; });  // in the past
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now().seconds(), 5.0);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  bs::Simulator sim(1);
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.at(Time::from_seconds(i), [&] { ++count; });
  }
  sim.run_until(Time::from_seconds(5.5));
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.now().seconds(), 5.5);
  sim.run();
  EXPECT_EQ(count, 10);
}

// A run that stops at its limit with events still queued throws, naming
// both; one that drains within its limit returns.
TEST(Simulator, RunWithLimit) {
  bs::Simulator sim(1);
  int count = 0;
  for (int i = 0; i < 100; ++i) sim.after(Duration::millis(i), [&] { ++count; });
  try {
    sim.run(10);
    ADD_FAILURE() << "run(10) returned with 90 events queued";
  } catch (const bs::EventCapReached& e) {
    EXPECT_EQ(e.limit, 10u);
    EXPECT_EQ(e.pending, 90u);
    EXPECT_STREQ(e.what(), "simulator stopped at its cap of 10 events with 90 still pending");
  }
  EXPECT_EQ(count, 10);
  sim.run(90);
  EXPECT_EQ(count, 100);
  EXPECT_EQ(sim.pending(), 0u);
}

// ---- Event-queue determinism & callback storage ----

namespace {
// Replays a seed-driven workload exercising every scheduling shape the
// event queue supports: same-timestamp ties, past-scheduled events, nested
// scheduling, rng-driven delays, and captures spanning inline storage, the
// slab pool, and the oversized fallback. Returns a fingerprint of the
// exact execution order.
struct RunTrace {
  std::uint64_t events = 0;
  std::int64_t final_clock_us = 0;
  std::uint64_t order_hash = 0;
  bool operator==(const RunTrace&) const = default;
};

RunTrace run_determinism_workload(std::uint64_t seed) {
  bs::Simulator sim(seed);
  RunTrace t;
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  // A burst of same-timestamp ties (FIFO order must hold).
  for (int i = 0; i < 32; ++i) {
    sim.at(Time::from_micros(5000), [&, i] {
             mix(static_cast<std::uint64_t>(i));
             mix(static_cast<std::uint64_t>(sim.now().micros()));
           });
  }
  // Rng-driven delays with nested re-scheduling and occasional past events.
  for (int i = 0; i < 200; ++i) {
    const auto delay =
        Duration::micros(static_cast<std::int64_t>(sim.rng().uniform(0, 20000)));
    sim.after(delay, [&, i] {
      mix(0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(i));
      mix(static_cast<std::uint64_t>(sim.now().micros()));
      if (i % 3 == 0) {
        // Past timestamp: clamps to now, keeps FIFO order among clamped.
        sim.at(Time::from_micros(0), [&] { mix(0xabcdULL); });
      }
      if (i % 5 == 0) {
        // Oversized capture: exercises the slab pool / heap fallback.
        std::array<std::uint64_t, 32> big{};
        big[0] = static_cast<std::uint64_t>(i);
        sim.after(Duration::micros(100), [&, big] { mix(big[0]); });
      }
    });
  }
  sim.run();
  t.events = sim.events_executed();
  t.final_clock_us = sim.now().micros();
  t.order_hash = h;
  return t;
}
}  // namespace

TEST(Simulator, IdenticalSeedsReplayIdenticalEventSequences) {
  const RunTrace a = run_determinism_workload(42);
  const RunTrace b = run_determinism_workload(42);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.final_clock_us, b.final_clock_us);
  EXPECT_EQ(a.order_hash, b.order_hash);
  EXPECT_GT(a.events, 200u);  // the workload actually ran

  // And a different seed genuinely changes the schedule (the hash is not
  // insensitive to ordering).
  const RunTrace c = run_determinism_workload(43);
  EXPECT_NE(a.order_hash, c.order_hash);
}

TEST(Simulator, LargeCapturesExecuteCorrectly) {
  bs::Simulator sim(1);
  // Inline (small), pooled-slab (mid), and oversized (plain heap) captures.
  int small_sum = 0;
  std::array<int, 20> mid{};
  std::array<int, 100> big{};
  mid.fill(2);
  big.fill(3);
  int got_mid = 0;
  int got_big = 0;
  sim.after(Duration::micros(1), [&small_sum] { small_sum = 1; });
  sim.after(Duration::micros(2), [&got_mid, mid] {
    for (int v : mid) got_mid += v;
  });
  sim.after(Duration::micros(3), [&got_big, big] {
    for (int v : big) got_big += v;
  });
  sim.run();
  EXPECT_EQ(small_sum, 1);
  EXPECT_EQ(got_mid, 40);
  EXPECT_EQ(got_big, 300);
}

TEST(Simulator, SlabPoolRecyclesAcrossManyEvents) {
  bs::Simulator sim(1);
  // Thousands of slab-sized captures; with pooling this stays warm and
  // correct. (The allocation count itself is asserted in bench/datapath.)
  std::uint64_t sum = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 20; ++i) {
      std::array<std::uint64_t, 16> payload{};
      payload[15] = static_cast<std::uint64_t>(round * 20 + i);
      sim.after(Duration::micros(round * 10 + i), [&sum, payload] { sum += payload[15]; });
    }
  }
  sim.run();
  EXPECT_EQ(sum, 999ull * 1000 / 2);
}

TEST(Simulator, ThrowingHandlerPropagatesAndClearsSpanContext) {
  bs::Simulator sim(1);
  // Scheduled under an active request context, which dispatch restores.
  bo::set_current_span(bo::SpanContext{7, 9});
  sim.at(Time::from_micros(10), [] {
    EXPECT_EQ(bo::current_span().span_id, 9u);
    throw std::runtime_error("handler failed");
  });
  bo::set_current_span(bo::SpanContext{});
  EXPECT_THROW(sim.run(), std::runtime_error);
  EXPECT_FALSE(bo::current_span().active());
  EXPECT_EQ(sim.now().micros(), 10);

  // The loop stays usable, and later events carry no leftover context.
  bool clean = false;
  sim.after(Duration::micros(5), [&clean] { clean = !bo::current_span().active(); });
  sim.run();
  EXPECT_TRUE(clean);
  EXPECT_EQ(sim.events_executed(), 2u);
}

namespace {

/// Decrements the hop budget in byte 0 and echoes the message back until it
/// reaches zero — deterministic traffic that drains on its own.
class EchoHandler : public bs::MessageHandler {
 public:
  bs::Network* net = nullptr;
  bs::NodeId self = bs::kInvalidNode;

  void on_message(bs::NodeId from, bu::Bytes data) override {
    if (data.empty() || data[0] == 0) return;
    data[0] -= 1;
    net->send(self, from, std::move(data));
  }
};

constexpr int kGroups = 4;
constexpr int kPerGroup = 3;

/// Builds a 12-node topology of 4 latency groups (2 ms links inside a group,
/// the 40 ms default between groups, one explicit 50 ms cross link), kicks
/// off intra- and cross-group echo traffic — all at the same timestamp, to
/// stress tie-breaking — runs to quiescence and returns the flight-recorder
/// capture.
std::string run_twelve_nodes(std::uint64_t seed, bool with_chaos) {
  bs::Simulator sim(seed);
  bs::Network net(sim);
  std::vector<std::unique_ptr<EchoHandler>> handlers;
  std::vector<bs::NodeId> ids;
  for (int i = 0; i < kGroups * kPerGroup; ++i) {
    auto h = std::make_unique<EchoHandler>();
    const bs::NodeId id = net.add_node(bs::NodeSpec{.name = "node"}, h.get());
    h->net = &net;
    h->self = id;
    ids.push_back(id);
    handlers.push_back(std::move(h));
  }
  for (int g = 0; g < kGroups; ++g) {
    for (int i = 0; i < kPerGroup; ++i) {
      for (int j = i + 1; j < kPerGroup; ++j) {
        net.set_latency(ids[g * kPerGroup + i], ids[g * kPerGroup + j],
                        Duration::millis(2));
      }
    }
  }
  net.set_latency(ids[0], ids[kPerGroup], Duration::millis(50));

  bch::ChaosEngine chaos(sim, net);
  if (with_chaos) {
    bch::ChaosPlan plan;
    plan.seed = 7;
    plan.links.push_back(bch::LinkFault{.a = bch::kAnyNode,
                                        .b = bch::kAnyNode,
                                        .drop_p = 0.05,
                                        .dup_p = 0.05,
                                        .jitter_p = 0.10});
    plan.partitions.push_back(bch::Partition{.a = ids[0],
                                             .b = ids[kPerGroup],
                                             .start = Time::from_micros(200'000),
                                             .heal = Duration::millis(300)});
    plan.crashes.push_back(bch::NodeCrash{.node = ids[2 * kPerGroup],
                                          .at = Time::from_micros(250'000),
                                          .restart_after = Duration::millis(200)});
    chaos.install(std::move(plan));
  }

  bo::recorder().enable(1 << 15);
  const Time start = Time::from_micros(10'000);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const bs::NodeId src = ids[i];
    const bs::NodeId intra = ids[(i % kPerGroup + 1) % kPerGroup + (i / kPerGroup) * kPerGroup];
    const bs::NodeId cross = ids[(i + kPerGroup) % ids.size()];
    sim.at(start, [&net, src, intra, cross] {
      net.send(src, intra, bu::Bytes{5});
      net.send(src, cross, bu::Bytes{3});
    });
  }
  sim.run();
  std::ostringstream os;
  bo::recorder().export_jsonl(os);
  bo::recorder().disable();
  return os.str();
}

}  // namespace

TEST(Simulator, TwelveNodeTraceRepeatsByteIdentical) {
  const std::string a = run_twelve_nodes(11, /*with_chaos=*/false);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, run_twelve_nodes(11, /*with_chaos=*/false));
}

TEST(Simulator, TwelveNodeChaosTraceRepeatsByteIdentical) {
  const std::string a = run_twelve_nodes(23, /*with_chaos=*/true);
  EXPECT_NE(a.find("chaos.fault"), std::string::npos);
  EXPECT_EQ(a, run_twelve_nodes(23, /*with_chaos=*/true));
}

TEST(Simulator, TwelveNodeSeedsDiverge) {
  EXPECT_NE(run_twelve_nodes(11, true), run_twelve_nodes(12, true));
}

namespace {
class Recorder : public bs::MessageHandler {
 public:
  explicit Recorder(bs::Simulator& sim) : sim_(sim) {}
  void on_message(bs::NodeId from, bu::Bytes data) override {
    arrivals.push_back({sim_.now(), from, std::move(data)});
  }
  struct Arrival {
    Time when;
    bs::NodeId from;
    bu::Bytes data;
  };
  std::vector<Arrival> arrivals;

 private:
  bs::Simulator& sim_;
};
}  // namespace

TEST(Network, DeliversMessageWithLatencyAndSerialization) {
  bs::Simulator sim(1);
  bs::Network net(sim);
  Recorder rx(sim);
  // 1 MB/s links so serialization delay is visible.
  auto a = net.add_node({"a", 1e6, 1e6});
  auto b = net.add_node({"b", 1e6, 1e6}, &rx);
  net.set_latency(a, b, Duration::millis(50));

  net.send(a, b, bu::Bytes(10000, 0x42));
  sim.run();

  ASSERT_EQ(rx.arrivals.size(), 1u);
  EXPECT_EQ(rx.arrivals[0].from, a);
  EXPECT_EQ(rx.arrivals[0].data.size(), 10000u);
  // ~10ms uplink + 50ms latency + ~10ms downlink.
  const double t = rx.arrivals[0].when.seconds();
  EXPECT_NEAR(t, 0.070, 0.002);
  EXPECT_EQ(net.stats(b).bytes_received, 10000u);
  EXPECT_EQ(net.stats(a).messages_sent, 1u);
}

TEST(Network, IdleDelayMatchesObservedDelay) {
  bs::Simulator sim(1);
  bs::Network net(sim);
  Recorder rx(sim);
  auto a = net.add_node({"a", 2e6, 2e6});
  auto b = net.add_node({"b", 5e6, 5e6}, &rx);
  net.set_latency(a, b, Duration::millis(30));
  net.send(a, b, bu::Bytes(5000, 1));
  sim.run();
  ASSERT_EQ(rx.arrivals.size(), 1u);
  EXPECT_NEAR(rx.arrivals[0].when.seconds(),
              net.idle_delay(a, b, 5000).to_seconds(), 1e-6);
}

TEST(Network, MessagesOnSameFlowStayOrdered) {
  bs::Simulator sim(1);
  bs::Network net(sim);
  Recorder rx(sim);
  auto a = net.add_node({"a", 1e6, 1e6});
  auto b = net.add_node({"b", 1e6, 1e6}, &rx);
  for (std::uint8_t i = 0; i < 50; ++i) net.send(a, b, bu::Bytes{i});
  sim.run();
  ASSERT_EQ(rx.arrivals.size(), 50u);
  for (std::uint8_t i = 0; i < 50; ++i) EXPECT_EQ(rx.arrivals[i].data[0], i);
}

TEST(Network, UplinkSharedFairlyBetweenTwoReceivers) {
  bs::Simulator sim(1);
  bs::Network net(sim);
  Recorder rx1(sim), rx2(sim);
  auto server = net.add_node({"server", 1e6, 1e6});
  auto c1 = net.add_node({"c1", 1e7, 1e7}, &rx1);
  auto c2 = net.add_node({"c2", 1e7, 1e7}, &rx2);
  net.set_latency(server, c1, Duration::millis(10));
  net.set_latency(server, c2, Duration::millis(10));

  // 100 x 10KB to each client: 2 MB total through a 1 MB/s uplink.
  for (int i = 0; i < 100; ++i) {
    net.send(server, c1, bu::Bytes(10000, 1));
    net.send(server, c2, bu::Bytes(10000, 2));
  }
  sim.run();
  ASSERT_EQ(rx1.arrivals.size(), 100u);
  ASSERT_EQ(rx2.arrivals.size(), 100u);
  // Both finish at ~2s (fair share), not one at 1s and the other at 2s.
  const double t1 = rx1.arrivals.back().when.seconds();
  const double t2 = rx2.arrivals.back().when.seconds();
  EXPECT_NEAR(t1, t2, 0.05);
  EXPECT_GT(t1, 1.9);
  // And interleaved mid-flight: client 1's 50th arrival near t/2.
  EXPECT_NEAR(rx1.arrivals[49].when.seconds(), t1 / 2, 0.1);
}

TEST(Network, FairShareRecoversWhenFlowEnds) {
  bs::Simulator sim(1);
  bs::Network net(sim);
  Recorder rx1(sim), rx2(sim);
  auto server = net.add_node({"server", 1e6, 1e6});
  auto c1 = net.add_node({"c1", 1e7, 1e7}, &rx1);
  auto c2 = net.add_node({"c2", 1e7, 1e7}, &rx2);
  // c1 gets 1MB, c2 gets 2MB. After c1's flow drains (~2s), c2 should
  // speed up and finish around 3s, not 4s.
  for (int i = 0; i < 100; ++i) net.send(server, c1, bu::Bytes(10000, 1));
  for (int i = 0; i < 200; ++i) net.send(server, c2, bu::Bytes(10000, 2));
  sim.run();
  EXPECT_NEAR(rx1.arrivals.back().when.seconds(), 2.0, 0.15);
  EXPECT_NEAR(rx2.arrivals.back().when.seconds(), 3.0, 0.15);
}

namespace {
/// Appends its node's id to a log shared by several receivers, so one log
/// shows the order a shared uplink served its peers in.
class DeliveryLog : public bs::MessageHandler {
 public:
  DeliveryLog(std::vector<bs::NodeId>& log, bs::NodeId* self) : log_(log), self_(self) {}
  void on_message(bs::NodeId, bu::Bytes) override { log_.push_back(*self_); }

 private:
  std::vector<bs::NodeId>& log_;
  bs::NodeId* self_;
};
}  // namespace

TEST(Network, ThreePeersOnOneUplinkAreServedRoundRobinInFirstContactOrder) {
  bs::Simulator sim(1);
  bs::Network net(sim);
  std::vector<bs::NodeId> log;
  bs::NodeId ids[3] = {};
  DeliveryLog rx0(log, &ids[0]), rx1(log, &ids[1]), rx2(log, &ids[2]);
  // A slow uplink and fast, equidistant receivers: arrival order is the
  // order the server's uplink serialized in.
  const bs::NodeId server = net.add_node({"server", 1e5, 1e5});
  ids[0] = net.add_node({"c0", 1e9, 1e9}, &rx0);
  ids[1] = net.add_node({"c1", 1e9, 1e9}, &rx1);
  ids[2] = net.add_node({"c2", 1e9, 1e9}, &rx2);
  for (const bs::NodeId c : ids) net.set_latency(server, c, Duration::millis(5));

  // First contact c2, c0, c1 (not node-id order), three packets each, all
  // queued at t=0. c2's first packet finds the link idle and goes at once.
  for (int round = 0; round < 3; ++round) {
    net.send(server, ids[2], bu::Bytes(1000, 2));
    net.send(server, ids[0], bu::Bytes(1000, 0));
    net.send(server, ids[1], bu::Bytes(1000, 1));
  }
  sim.run();
  const std::vector<bs::NodeId> rotation = {ids[2], ids[0], ids[1]};
  std::vector<bs::NodeId> expected;
  for (int round = 0; round < 3; ++round) {
    expected.insert(expected.end(), rotation.begin(), rotation.end());
  }
  EXPECT_EQ(log, expected);
}

TEST(Network, RoundRobinResumesAfterAnIdleLink) {
  bs::Simulator sim(1);
  bs::Network net(sim);
  std::vector<bs::NodeId> log;
  bs::NodeId ids[3] = {};
  DeliveryLog rx0(log, &ids[0]), rx1(log, &ids[1]), rx2(log, &ids[2]);
  const bs::NodeId server = net.add_node({"server", 1e5, 1e5});
  ids[0] = net.add_node({"c0", 1e9, 1e9}, &rx0);
  ids[1] = net.add_node({"c1", 1e9, 1e9}, &rx1);
  ids[2] = net.add_node({"c2", 1e9, 1e9}, &rx2);
  for (const bs::NodeId c : ids) net.set_latency(server, c, Duration::millis(5));

  // Phase 1 makes first contact in order c0, c1, c2 and stops with c1 the
  // last peer served. When c1's packet finishes serializing, the uplink
  // serves again, finds nothing queued anywhere and leaves its cursor (on
  // c2) alone. No delivery order can show that cursor: the next packet on an
  // idle link goes at once, whichever slot the cursor is on. What shows is
  // that the rotation then continues from the slot of that first packet.
  net.send(server, ids[0], bu::Bytes(1000, 0));
  net.send(server, ids[1], bu::Bytes(1000, 1));
  net.send(server, ids[2], bu::Bytes(1000, 2));
  net.send(server, ids[0], bu::Bytes(1000, 0));
  net.send(server, ids[1], bu::Bytes(1000, 1));
  sim.run();
  ASSERT_EQ(log.size(), 5u);
  EXPECT_EQ(log.back(), ids[1]);

  // Phase 2, on the idle link: c0's packet goes at once; the rest rotate on
  // from c0's slot in first-contact order (c1 has nothing, so c2, then c0).
  log.clear();
  net.send(server, ids[0], bu::Bytes(1000, 0));
  net.send(server, ids[0], bu::Bytes(1000, 0));
  net.send(server, ids[2], bu::Bytes(1000, 2));
  net.send(server, ids[2], bu::Bytes(1000, 2));
  sim.run();
  const std::vector<bs::NodeId> expected = {ids[0], ids[2], ids[0], ids[2]};
  EXPECT_EQ(log, expected);
  EXPECT_EQ(net.stats(server).messages_sent, 9u);
}

TEST(Network, SetLatencyAfterTrafficAppliesToTheNextPacket) {
  bs::Simulator sim(1);
  bs::Network net(sim);
  Recorder rx(sim);
  auto a = net.add_node({"a", 1e9, 1e9});
  auto b = net.add_node({"b", 1e9, 1e9}, &rx);
  net.set_latency(a, b, Duration::millis(10));
  net.send(a, b, bu::Bytes(100, 1));
  sim.run();
  ASSERT_EQ(rx.arrivals.size(), 1u);
  const Duration first = rx.arrivals[0].when - Time{};

  // The pair has exchanged traffic, so the link holds their latency; a
  // change (a LoadBalancer replica's node, BentoServer's companion proxy)
  // must reach the very next packet, in either direction.
  net.set_latency(b, a, Duration::millis(60));
  const Time resent = sim.now();
  net.send(a, b, bu::Bytes(100, 1));
  sim.run();
  ASSERT_EQ(rx.arrivals.size(), 2u);
  EXPECT_EQ((rx.arrivals[1].when - resent).count_micros(),
            first.count_micros() + 50'000);

  // The default latency is cached the same way for pairs that never had
  // an explicit one.
  Recorder rx_c(sim);
  auto c = net.add_node({"c", 1e9, 1e9}, &rx_c);
  net.send(a, c, bu::Bytes(100, 1));
  sim.run();
  net.set_default_latency(Duration::millis(7));
  const Time again = sim.now();
  net.send(a, c, bu::Bytes(100, 1));
  sim.run();
  ASSERT_EQ(rx_c.arrivals.size(), 2u);
  EXPECT_EQ((rx_c.arrivals[1].when - again).count_micros(),
            (net.idle_delay(a, c, 100)).count_micros());
  EXPECT_EQ(net.latency(a, c).to_millis(), 7);
}

TEST(Network, UnknownNodeThrows) {
  bs::Simulator sim(1);
  bs::Network net(sim);
  auto a = net.add_node({"a", 1e6, 1e6});
  EXPECT_THROW(net.send(a, 99, bu::Bytes{1}), std::out_of_range);
  EXPECT_THROW(net.stats(99), std::out_of_range);
  EXPECT_THROW(net.add_node({"bad", 0.0, 1.0}), std::invalid_argument);
}

TEST(Network, DefaultLatencyApplies) {
  bs::Simulator sim(1);
  bs::Network net(sim);
  net.set_default_latency(Duration::millis(123));
  auto a = net.add_node({"a", 1e9, 1e9});
  auto b = net.add_node({"b", 1e9, 1e9});
  EXPECT_EQ(net.latency(a, b).to_millis(), 123);
}
