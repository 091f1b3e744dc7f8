#include "chaos/chaos.hpp"

#include <stdexcept>

#include "obs/span.hpp"
#include "util/annotations.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace bento::chaos {

namespace {
constexpr char kComponent[] = "chaos";

std::pair<sim::NodeId, sim::NodeId> ordered(sim::NodeId a, sim::NodeId b) {
  return a < b ? std::pair{a, b} : std::pair{b, a};
}

bool rule_matches(sim::NodeId ra, sim::NodeId rb, sim::NodeId from, sim::NodeId to) {
  const bool fwd = (ra == kAnyNode || ra == from) && (rb == kAnyNode || rb == to);
  const bool rev = (ra == kAnyNode || ra == to) && (rb == kAnyNode || rb == from);
  return fwd || rev;
}
}  // namespace

ChaosEngine::ChaosEngine(sim::Simulator& sim, sim::Network& net)
    : sim_(sim), net_(net) {}

ChaosEngine::~ChaosEngine() {
  if (installed_ && net_.fault_injector() == this) {
    net_.set_fault_injector(nullptr);
  }
}

void ChaosEngine::record(FaultKind kind, std::uint32_t a, std::uint64_t extra,
                         bool ok) {
  obs::trace(obs::Ev::ChaosFault, a,
             (static_cast<std::uint64_t>(kind) << 32) | (extra & 0xffffffffu), ok);
  // Attribute the fault to whatever request span is active right now; no-op
  // when nothing is being traced.
  obs::span_note(obs::current_span().span_id, obs::kNoteChaos,
                 static_cast<std::uint32_t>(kind));
}

void ChaosEngine::install(ChaosPlan plan) {
  if (installed_) throw std::logic_error("ChaosEngine::install: already installed");
  installed_ = true;
  plan_ = std::move(plan);
  // All coin flips flow from a generator derived from the simulator's seeded
  // Rng at this point, folded with the plan's own seed: identical (seed,
  // plan) pairs replay identical fault sequences.
  rng_ = util::Rng(sim_.rng().next_u64() ^ plan_.seed ^ 0x63686130735f656eull);
  sync_hook();
  schedule_plan();
}

void ChaosEngine::sync_hook() {
  // The packet hook is attached only while some fault state can actually
  // touch a packet — probabilistic link rules, open cuts, or downed nodes.
  // Otherwise the network keeps its null-injector fast path, so an engine
  // installed with an idle plan costs the send datapath nothing (the
  // BM_NetworkSendDatapathChaosIdle guard holds this at <= 2%).
  const bool need = !plan_.links.empty() || !cuts_.empty() || down_count_ > 0;
  net_.set_fault_injector(need ? this : nullptr);
}

void ChaosEngine::set_node_handler(sim::NodeId node, std::function<void(bool)> fn) {
  node_handlers_[node] = std::move(fn);
}

void ChaosEngine::schedule_plan() {
  for (const Partition& p : plan_.partitions) {
    sim_.at(p.start, [this, p] { cut(p.a, p.b, p.heal); });
  }
  for (const NodeCrash& c : plan_.crashes) {
    sim_.at(c.at, [this, c] { crash(c.node, c.restart_after); });
  }
  for (const Throttle& t : plan_.throttles) {
    sim_.at(t.start, [this, t] {
      record(FaultKind::Throttle, t.node,
             static_cast<std::uint64_t>(t.scale * 1000.0));
      net_.set_bandwidth_scale(t.node, t.scale);
      if (t.duration.count_micros() > 0) {
        sim_.after(t.duration, [this, node = t.node] {
          net_.set_bandwidth_scale(node, 1.0);
        });
      }
    });
  }
  for (const AppFault& f : plan_.app_faults) {
    // The callable is shared rather than copied into the event so capture
    // size stays within the scheduler's inline buffer.
    auto fn = std::make_shared<std::function<void()>>(f.fn);
    sim_.at(f.at, [this, ref = f.ref, fn] {
      record(FaultKind::App, ref, 0);
      if (*fn) (*fn)();
    });
  }
}

void ChaosEngine::crash_now(sim::NodeId node, util::Duration restart_after) {
  crash(node, restart_after);
}

BENTO_HOT bool ChaosEngine::is_down(sim::NodeId node) const {
  return node < down_.size() && down_[node] != 0;
}

BENTO_HOT bool ChaosEngine::node_down(sim::NodeId node) const { return is_down(node); }

void ChaosEngine::crash(sim::NodeId node, util::Duration restart_after) {
  if (is_down(node)) return;
  if (down_.size() <= node) down_.resize(node + 1, 0);
  down_[node] = 1;
  ++down_count_;
  sync_hook();
  ++stats_.crashes;
  util::log_warn(kComponent, "crashing node ", node);
  record(FaultKind::Crash, node,
         static_cast<std::uint64_t>(restart_after.count_micros() / 1000));
  auto it = node_handlers_.find(node);
  if (it != node_handlers_.end() && it->second) it->second(false);
  net_.notify_peer_down(node);
  if (restart_after.count_micros() > 0) {
    sim_.after(restart_after, [this, node] { restart(node); });
  }
}

void ChaosEngine::restart(sim::NodeId node) {
  if (!is_down(node)) return;
  down_[node] = 0;
  --down_count_;
  sync_hook();
  ++stats_.restarts;
  util::log_info(kComponent, "restarting node ", node);
  record(FaultKind::Restart, node, 0);
  auto it = node_handlers_.find(node);
  if (it != node_handlers_.end() && it->second) it->second(true);
}

void ChaosEngine::cut(sim::NodeId a, sim::NodeId b, util::Duration heal) {
  cuts_.insert(ordered(a, b));
  sync_hook();
  record(FaultKind::Partition, a == kAnyNode ? b : a,
         a == kAnyNode || b == kAnyNode ? 0xffffffffu
                                        : static_cast<std::uint64_t>(ordered(a, b).second));
  if (heal.count_micros() > 0) {
    sim_.after(heal, [this, a, b] { this->heal(a, b); });
  }
}

void ChaosEngine::heal(sim::NodeId a, sim::NodeId b) {
  cuts_.erase(ordered(a, b));
  sync_hook();
}

BENTO_HOT sim::FaultDecision ChaosEngine::on_packet(sim::NodeId from, sim::NodeId to,
                                          std::size_t wire_size) {
  (void)wire_size;
  sim::FaultDecision verdict;
  if (!cuts_.empty() &&
      (cuts_.contains(ordered(from, to)) || cuts_.contains(ordered(from, kAnyNode)) ||
       cuts_.contains(ordered(to, kAnyNode)))) {
    verdict.drop = true;
    record(FaultKind::Partition, from, to, /*ok=*/false);
    return verdict;
  }
  for (const LinkFault& rule : plan_.links) {
    if (!rule_matches(rule.a, rule.b, from, to)) continue;
    if (rule.drop_p > 0 && rng_.chance(rule.drop_p)) {
      record(FaultKind::Drop, from, to, /*ok=*/false);
      verdict.drop = true;
      return verdict;  // a lost packet cannot also be duplicated/delayed
    }
    if (rule.dup_p > 0 && rng_.chance(rule.dup_p)) {
      record(FaultKind::Duplicate, from, to);
      verdict.duplicate = true;
    }
    if (rule.jitter_p > 0 && rng_.chance(rule.jitter_p)) {
      const util::Duration extra = util::Duration::micros(static_cast<std::int64_t>(
          rng_.exponential(rule.jitter_mean.to_seconds() * 1e6)));
      record(FaultKind::Jitter, from,
             static_cast<std::uint64_t>(extra.count_micros()));
      verdict.extra_delay = verdict.extra_delay + extra;
    }
  }
  return verdict;
}

}  // namespace bento::chaos
