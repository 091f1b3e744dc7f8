// Scenario builder: assembles a complete simulated Tor network (relays,
// directory, consensus, clearnet servers) in a few lines. Shared by the
// test suite, the benchmark harnesses, and the examples.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "tor/directory.hpp"
#include "tor/internet.hpp"
#include "tor/proxy.hpp"
#include "tor/router.hpp"

namespace bento::tor {

struct TestbedOptions {
  std::uint64_t seed = 7;
  int guards = 3;
  int middles = 4;
  int exits = 3;
  /// Relay access-link bandwidth (bytes/sec).
  double relay_bandwidth = 2e6;
  /// Propagation latencies are uniform in [min,max].
  util::Duration min_latency = util::Duration::millis(10);
  util::Duration max_latency = util::Duration::millis(45);
  /// Exit policy applied to exit relays.
  std::string exit_policy = "accept *:*";
  /// Mark all relays as Bento-capable.
  bool all_bento = false;
  /// Serialized middlebox node policy advertised in descriptors (paper
  /// §5.5 dissemination); applied when all_bento is set.
  util::Bytes bento_policy;
};

class Testbed {
 public:
  explicit Testbed(const TestbedOptions& options = {});

  sim::Simulator& sim() { return sim_; }
  sim::Network& net() { return net_; }
  Internet& internet() { return internet_; }
  DirectoryAuthority& directory() { return dir_; }
  const Consensus& consensus() const { return consensus_; }
  util::Rng& rng() { return rng_; }

  /// Adds one relay before finalize(); returns its index.
  std::size_t add_relay(const RelayConfig& config);
  Router& router(std::size_t index) { return *routers_[index]; }
  std::size_t router_count() const { return routers_.size(); }
  Router* router_by_fingerprint(const std::string& fp);

  /// Publishes descriptors, signs the consensus, wires it into every relay.
  /// Must be called exactly once before creating proxies.
  void finalize();

  /// Creates a client proxy node (after finalize()).
  std::unique_ptr<OnionProxy> make_client(const std::string& name,
                                          double bandwidth = 1.25e6);

  /// Registers a clearnet web server at `addr`; returns the owning pointer
  /// holder index. Latencies to it follow the testbed distribution.
  WebServer& add_web_server(Addr addr, WebServer::ContentFn content,
                            double bandwidth = 12.5e6);

  /// Runs the simulation until quiescent; throws sim::EventCapReached past
  /// sim::kRunEventCap events.
  void run() { sim_.run(sim::kRunEventCap); }
  void run_for(util::Duration d) { sim_.run_until(sim_.now() + d); }

 private:
  void assign_latencies(sim::NodeId node);

  TestbedOptions options_;
  sim::Simulator sim_;
  sim::Network net_;
  Internet internet_;
  util::Rng rng_;
  DirectoryAuthority dir_;
  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<std::unique_ptr<WebServer>> web_servers_;
  Consensus consensus_;
  bool finalized_ = false;
  int next_addr_block_ = 1;
};

}  // namespace bento::tor
