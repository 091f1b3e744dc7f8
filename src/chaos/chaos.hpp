// Chaos engine: deterministic fault injection for the whole stack.
//
// A ChaosPlan is pure data describing what should go wrong — per-link loss,
// duplication and latency jitter, link partitions with heal times, scheduled
// node crash/restart, slow-node throttling, and arbitrary application-level
// faults (conclave kill, EPC thrash) as timed callbacks. The ChaosEngine
// installs the plan as a sim::FaultInjector on the Network and schedules the
// timed faults on the Simulator.
//
// Determinism contract: every probabilistic decision draws from an Rng
// derived from the simulator's seeded generator at install() time, and all
// timed faults fire at plan-specified sim times — so a run is a pure
// function of (simulator seed, plan) and any failure replays bit-identically
// from those two values. Every injected fault lands in the flight recorder
// (Ev::ChaosFault) and, when a request is being traced, as a kNoteChaos span
// note, so bentotrace attributes latency and failures to their injected
// causes (DESIGN.md §9).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace bento::chaos {

/// Wildcard endpoint for LinkFault rules.
inline constexpr sim::NodeId kAnyNode = sim::kInvalidNode;

/// Fault taxonomy; recorded in Ev::ChaosFault.b (high 32 bits) and in
/// kNoteChaos span notes.
enum class FaultKind : std::uint8_t {
  Drop = 0,
  Duplicate,
  Jitter,
  Partition,
  Crash,
  Restart,
  Throttle,
  App,
};

/// One probabilistic rule for packets between `a` and `b` (either may be
/// kAnyNode; rules match both directions). Multiple matching rules compose:
/// any drop wins, delays add.
struct LinkFault {
  sim::NodeId a = kAnyNode;
  sim::NodeId b = kAnyNode;
  double drop_p = 0.0;       // P(packet silently lost)
  double dup_p = 0.0;        // P(delivered twice)
  double jitter_p = 0.0;     // P(extra exponential latency — reorders)
  util::Duration jitter_mean = util::Duration::millis(20);
};

/// Link cut from `start`; heals after `heal` (zero = stays cut).
struct Partition {
  sim::NodeId a = kAnyNode;
  sim::NodeId b = kAnyNode;
  util::Time start{};
  util::Duration heal{};
};

/// Node crash at `at`; restarts after `restart_after` (zero = stays down).
/// The node's registered handler (set_node_handler) is told on both edges.
struct NodeCrash {
  sim::NodeId node = kAnyNode;
  util::Time at{};
  util::Duration restart_after{};
};

/// Access-link slowdown: bandwidth scaled by `scale` during the window.
struct Throttle {
  sim::NodeId node = kAnyNode;
  double scale = 0.1;
  util::Time start{};
  util::Duration duration{};  // zero = until the end of the run
};

/// Application-level fault fired at `at` (conclave kill, EPC thrash, ...).
/// `ref` is an opaque id recorded with the trace event.
struct AppFault {
  util::Time at{};
  std::uint32_t ref = 0;
  std::function<void()> fn;
};

struct ChaosPlan {
  /// Folded into the engine Rng derivation; two plans differing only in
  /// seed replay different coin flips under the same traffic.
  std::uint64_t seed = 0;
  std::vector<LinkFault> links;
  std::vector<Partition> partitions;
  std::vector<NodeCrash> crashes;
  std::vector<Throttle> throttles;
  std::vector<AppFault> app_faults;
};

class ChaosEngine final : public sim::FaultInjector {
 public:
  ChaosEngine(sim::Simulator& sim, sim::Network& net);
  ~ChaosEngine() override;  // uninstalls the network hook

  ChaosEngine(const ChaosEngine&) = delete;
  ChaosEngine& operator=(const ChaosEngine&) = delete;

  /// Installs the plan and schedules every timed fault. May be called once
  /// per engine. The packet hook is attached to the network lazily — only
  /// while link rules, open cuts, or downed nodes exist — so an idle engine
  /// leaves the send datapath on its null-injector fast path.
  void install(ChaosPlan plan);

  /// Registers the callback fired when `node` crashes (up == false) and
  /// restarts (up == true) — harnesses wire relay/server state teardown.
  void set_node_handler(sim::NodeId node, std::function<void(bool up)> fn);

  /// Imperative crash for harnesses that react to run-time state (e.g.
  /// crash whichever relay the client's circuit chose).
  void crash_now(sim::NodeId node, util::Duration restart_after = {});

  bool is_down(sim::NodeId node) const;

  // sim::FaultInjector
  bool node_down(sim::NodeId node) const override;
  sim::FaultDecision on_packet(sim::NodeId from, sim::NodeId to,
                               std::size_t wire_size) override;

  /// Node crashes and restarts so far. Every fault is also traced as
  /// Ev::ChaosFault.
  struct Stats {
    std::uint64_t crashes = 0;
    std::uint64_t restarts = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  void schedule_plan();
  void sync_hook();
  void crash(sim::NodeId node, util::Duration restart_after);
  void restart(sim::NodeId node);
  void cut(sim::NodeId a, sim::NodeId b, util::Duration heal);
  void heal(sim::NodeId a, sim::NodeId b);
  void record(FaultKind kind, std::uint32_t a, std::uint64_t extra, bool ok = true);

  sim::Simulator& sim_;
  sim::Network& net_;
  ChaosPlan plan_;
  util::Rng rng_{0};
  Stats stats_;
  bool installed_ = false;
  std::size_t down_count_ = 0;      // nodes currently crashed
  std::vector<std::uint8_t> down_;  // indexed by NodeId, grown on demand
  std::set<std::pair<sim::NodeId, sim::NodeId>> cuts_;
  std::map<sim::NodeId, std::function<void(bool)>> node_handlers_;
};

}  // namespace bento::chaos
