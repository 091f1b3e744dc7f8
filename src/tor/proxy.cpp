#include "tor/proxy.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "obs/trace.hpp"
#include "tor/wire.hpp"
#include "util/log.hpp"

namespace bento::tor {

namespace {
constexpr char kComponent[] = "tor.proxy";

Consensus check_consensus(Consensus consensus, crypto::Gp authority_key) {
  if (!consensus.verify(authority_key)) {
    throw std::invalid_argument("OnionProxy: consensus verification failed");
  }
  return consensus;
}
}  // namespace

OnionProxy::OnionProxy(sim::Simulator& sim, sim::Network& net,
                       const sim::NodeSpec& spec, Consensus consensus,
                       crypto::Gp authority_key, util::Rng rng)
    : sim_(sim),
      net_(net),
      node_(net.add_node(spec, this)),
      consensus_(check_consensus(std::move(consensus), authority_key)),
      rng_(rng) {}

CircId OnionProxy::alloc_circ_id(sim::NodeId guard) {
  CircId& counter = circ_counters_[guard];
  ++counter;
  return node_ < guard ? counter : (counter | 0x80000000u);
}

void OnionProxy::build_circuit(const PathConstraints& constraints,
                               std::function<void(CircuitOrigin*)> done, int attempts) {
  if (attempts > 1) {
    // An init-capture: the copy drops const, so a rebuild can extend it.
    done = [this, constraints = constraints, attempts,
            done = std::move(done)](CircuitOrigin* circ) mutable {
      if (circ != nullptr) {
        done(circ);
        return;
      }
      // Rebuild through a fresh path, excluding the relay the failed attempt
      // died at — unless it is the pinned destination, which every path must
      // keep (its crash is unrecoverable by rerouting).
      const std::string& bad = last_failed_hop_;
      if (!bad.empty() && bad != constraints.last_hop.value_or("") &&
          std::find(constraints.excluded.begin(), constraints.excluded.end(), bad) ==
              constraints.excluded.end()) {
        constraints.excluded.push_back(bad);
      }
      obs::trace(obs::Ev::CircRebuild, 0,
                 static_cast<std::uint64_t>(constraints.excluded.size()));
      util::log_info(kComponent, "rebuilding circuit (", attempts - 1,
                     " attempts left, excluding ", constraints.excluded.size(),
                     " relays)");
      build_circuit(
          constraints,
          [done = std::move(done)](CircuitOrigin* rebuilt) {
            if (rebuilt != nullptr) {
              obs::trace(obs::Ev::CircRebuild, rebuilt->circ_id(),
                         static_cast<std::uint64_t>(rebuilt->hop_count()), /*ok=*/true);
            }
            done(rebuilt);
          },
          attempts - 1);
    };
  }
  PathSelector selector(consensus_);
  Path path;
  try {
    path = selector.choose(constraints, rng_);
  } catch (const std::exception& e) {
    util::log_warn(kComponent, "path selection failed: ", e.what());
    done(nullptr);
    return;
  }
  build_circuit_path(std::move(path), std::move(done));
}

void OnionProxy::build_circuit_path(Path path,
                                    std::function<void(CircuitOrigin*)> done) {
  if (path.empty()) {
    done(nullptr);
    return;
  }
  const sim::NodeId guard = path.front().node;
  const CircId id = alloc_circ_id(guard);
  auto circ = std::make_unique<CircuitOrigin>(net_, node_, std::move(path), id, rng_);
  CircuitOrigin* raw = circ.get();
  raw->set_build_timeout(build_timeout_);
  circuits_[{guard, id}] = std::move(circ);
  raw->build([this, raw, done = std::move(done)](bool ok) {
    if (!ok) {
      last_failed_hop_ = raw->failed_hop();
      forget(raw);
      done(nullptr);
      return;
    }
    done(raw);
  });
}

void OnionProxy::forget(CircuitOrigin* circ) {
  if (circ == nullptr) return;
  const std::pair<sim::NodeId, CircId> key{circ->path().front().node, circ->circ_id()};
  auto it = circuits_.find(key);
  if (it == circuits_.end()) return;
  // Defer destruction to the next event: forget() is frequently reached
  // from inside the circuit's own callbacks.
  std::shared_ptr<CircuitOrigin> holder = std::move(it->second);
  circuits_.erase(it);
  sim_.after(util::Duration::micros(0), [holder] {});
}

void OnionProxy::on_message(sim::NodeId from, util::Bytes data) {
  if (!is_framed_cell(data)) {
    util::log_warn(kComponent, "non-cell message at client node");
    return;
  }
  auto it = circuits_.find({from, frame_circ_id(data)});
  if (it == circuits_.end()) return;
  it->second->handle_cell(std::move(data));
}

void OnionProxy::on_peer_down(sim::NodeId peer) {
  // Collect first: destroy() fires callbacks that may call forget() and
  // mutate circuits_ under us.
  std::vector<CircuitOrigin*> doomed;
  for (auto& [key, circ] : circuits_) {
    if (key.first == peer) doomed.push_back(circ.get());
  }
  for (CircuitOrigin* circ : doomed) {
    util::log_warn(kComponent, "guard ", peer, " down; destroying circuit ",
                   circ->circ_id());
    if (!circ->built()) {
      // Half-open build: the waiter must see done(nullptr). The build
      // wrapper records the failed hop and forgets the circuit itself.
      circ->fail_build();
    } else {
      circ->destroy();
      forget(circ);
    }
  }
}

}  // namespace bento::tor
