// BentoWorld: one-stop scenario assembly for experiments, examples and
// tests — a simulated Tor network (tor::Testbed) plus a simulated Intel
// Attestation Service and a Bento server on every relay marked as a Bento
// box. This is the "deployment" the paper's evaluation runs against.
#pragma once

#include <memory>
#include <vector>

#include "core/api.hpp"
#include "core/client.hpp"
#include "core/server.hpp"
#include "obs/metrics.hpp"
#include "tor/testbed.hpp"

namespace bento::core {

struct BentoWorldOptions {
  tor::TestbedOptions testbed;
  /// Configuration of every server in the world; its policy is also the
  /// one each relay descriptor advertises.
  BentoServerConfig server;

  BentoWorldOptions() { testbed.all_bento = true; }
};

class BentoWorld {
 public:
  explicit BentoWorld(const BentoWorldOptions& options = {});

  tor::Testbed& bed() { return bed_; }
  sim::Simulator& sim() { return bed_.sim(); }
  tee::IntelAttestationService& ias() { return *ias_; }
  NativeRegistry& natives() { return natives_; }

  /// Must be called once, after any extra relays/servers are configured.
  /// Finalizes the testbed and starts a BentoServer on every bento relay.
  void start();

  BentoServer& server(std::size_t index) { return *servers_[index]; }
  BentoServer* server_for(const std::string& fingerprint);
  std::size_t server_count() const { return servers_.size(); }

  /// A ready-to-use Bento client riding its own onion proxy.
  struct Client {
    std::unique_ptr<tor::OnionProxy> proxy;
    std::unique_ptr<BentoClient> bento;
  };
  Client make_client(const std::string& name, double bandwidth = 1.25e6);

  /// How clients reach and attest the boxes (all share one; after start()).
  BentoClientConfig client_config() const { return servers_.at(0)->client_config(); }

  void run() { bed_.run(); }
  void run_for(util::Duration d) { bed_.run_for(d); }

  /// One consolidated telemetry snapshot: the global registry (counters,
  /// gauges, histograms) plus formatted per-server/per-function and
  /// per-node network sections. snapshot.to_string() is the stats dump
  /// artifact referenced by EXPERIMENTS.md.
  obs::Snapshot snapshot_stats();

 private:
  BentoWorldOptions options_;
  tor::Testbed bed_;
  std::unique_ptr<tee::IntelAttestationService> ias_;
  NativeRegistry natives_;
  std::vector<std::unique_ptr<BentoServer>> servers_;
  bool started_ = false;
};

}  // namespace bento::core
