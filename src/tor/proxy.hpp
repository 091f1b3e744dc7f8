// The Onion Proxy: the client endpoint of the Tor overlay.
//
// Owns a simulator node, builds circuits via path selection over a verified
// consensus, and dispatches incoming cells to its circuits. Bento clients,
// hidden-service hosts, and the Browser function's dedicated OP (paper
// §5.4) are all built on this class.
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "tor/circuit.hpp"
#include "tor/directory.hpp"
#include "tor/pathselect.hpp"

namespace bento::tor {

class OnionProxy : public sim::MessageHandler {
 public:
  /// Verifies the consensus signature before accepting it; throws
  /// std::invalid_argument on failure.
  OnionProxy(sim::Simulator& sim, sim::Network& net, const sim::NodeSpec& spec,
             Consensus consensus, crypto::Gp authority_key, util::Rng rng);

  sim::NodeId node() const { return node_; }
  const Consensus& consensus() const { return consensus_; }
  sim::Simulator& simulator() { return sim_; }
  sim::Network& network() { return net_; }
  util::Rng& rng() { return rng_; }

  /// Builds a circuit; `done` receives nullptr on failure. The proxy owns
  /// the returned circuit until it is destroyed. With `attempts` > 1 a failed
  /// build reselects a path excluding the hop it died at and tries again, up
  /// to `attempts` builds in all; each rebuild is traced (Ev::CircRebuild).
  void build_circuit(const PathConstraints& constraints,
                     std::function<void(CircuitOrigin*)> done, int attempts = 1);

  /// Applied to every circuit this proxy builds (0 disables the watchdog).
  void set_build_timeout(util::Duration d) { build_timeout_ = d; }

  /// Fingerprint of the hop the most recent failed build died at; empty when
  /// no build has failed or the hop is unknown.
  const std::string& last_failed_hop() const { return last_failed_hop_; }

  /// Removes a destroyed circuit's bookkeeping.
  void forget(CircuitOrigin* circ);

  std::size_t open_circuits() const { return circuits_.size(); }

  void on_message(sim::NodeId from, util::Bytes data) override;

  /// Guard crashed: destroy every circuit entering the overlay through it so
  /// waiters see failure promptly instead of timing out.
  void on_peer_down(sim::NodeId peer) override;

 private:
  CircId alloc_circ_id(sim::NodeId guard);
  void build_circuit_path(Path path, std::function<void(CircuitOrigin*)> done);

  sim::Simulator& sim_;
  sim::Network& net_;
  sim::NodeId node_;
  Consensus consensus_;
  util::Rng rng_;
  std::map<std::pair<sim::NodeId, CircId>, std::unique_ptr<CircuitOrigin>> circuits_;
  std::map<sim::NodeId, CircId> circ_counters_;
  util::Duration build_timeout_ = util::Duration::seconds(30);
  std::string last_failed_hop_;
};

}  // namespace bento::tor
