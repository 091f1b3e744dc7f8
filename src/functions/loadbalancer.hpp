// LoadBalancer (paper §8): autoscaling hidden-service replicas.
//
// The front end runs a hidden service exactly like today's Tor — one set of
// introduction points, one published descriptor — but instead of answering
// rendezvous requests itself beyond a per-instance cap, it *forwards* the
// INTRODUCE2 blob to a replica, which connects to the client's rendezvous
// point on the front end's behalf. Replica creation copies the service's
// hostname and private keys to a fresh Bento box (which is why the paper
// deploys LoadBalancer inside conclaves), is fully transparent to clients,
// and is driven by a high watermark on the load replicas report. The front
// end scales up and, with health checks on, fails a dead replica over to
// the next spare box; it never scales down, so with health checks off an
// installed LoadBalancer arms no timer and its world quiesces.
//
// Both halves are native functions:
//   "loadbalancer" — the front end (install args: LoadBalancerConfig)
//   "hs-replica"   — a replica  (install args: ReplicaConfig; deployed by
//                    the front end via the composition API)
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "tor/hs.hpp"
#include "util/bytes.hpp"

namespace bento::functions {

struct LoadBalancerConfig {
  int intro_points = 3;
  /// High watermark: assignments per replica before scaling out (paper §8.3
  /// runs with 2).
  int max_clients_per_replica = 2;
  /// Bytes each replica serves per client request (10 MB in Figure 5).
  std::uint64_t content_bytes = 10'000'000;
  /// Candidate Bento boxes for replicas, in deployment order.
  std::vector<std::string> replica_boxes;
  /// Ping remote replicas this often (0 disables health checks).
  double health_check_seconds = 0.0;
  /// Consecutive unanswered pings before a replica is declared dead and a
  /// replacement is re-spawned from the stored function image.
  int health_max_misses = 2;

  util::Bytes serialize() const;
  static LoadBalancerConfig deserialize(util::ByteView data);
};

struct ReplicaConfig {
  util::Bytes signing_key;  // service identity (paper: "the private key")
  util::Bytes ntor_key;
  std::uint64_t content_bytes = 0;

  util::Bytes serialize() const;
  static ReplicaConfig deserialize(util::ByteView data);
};

class LoadBalancerFunction final : public core::Function {
 public:
  void on_install(core::HostApi& api, util::ByteView args) override;
  void on_message(core::HostApi& api, util::Bytes payload) override;
  void on_shutdown(core::HostApi& api) override;

 private:
  struct Replica {
    std::string box;
    util::Bytes invocation_token;
    int load = 0;       // last reported / locally tracked
    int assigned = 0;   // optimistic in-flight assignments
    bool remote = false;
    int missed = 0;            // unanswered health checks in a row
    bool awaiting_pong = false;
  };

  void route_introduction(core::HostApi& api, util::ByteView blob);
  void assign_to(core::HostApi& api, Replica& replica, util::ByteView blob);
  void scale_up(core::HostApi& api, bool failover_respawn = false);
  void health_tick(core::HostApi& api);
  /// Applies a replica's "load:N" report; a `pong` (the answer to a health
  /// check PING) also clears its missed checks.
  void on_load_report(const std::string& box, const util::Bytes& output, bool pong);
  void drain_queue(core::HostApi& api, Replica* fresh);
  Replica* least_loaded();
  int effective_load(const Replica& r) const { return std::max(r.load, r.assigned); }
  std::string status() const;

  LoadBalancerConfig config_;
  tor::HiddenServiceHost* host_ = nullptr;  // owned by the Stem session
  std::vector<Replica> replicas_;           // [0] is always the local instance
  std::size_t next_candidate_ = 0;
  int pending_deploys_ = 0;
  std::vector<util::Bytes> pending_intros_;  // waiting for a fresh replica
  int peak_replicas_ = 1;
  std::uint64_t introductions_ = 0;
  int failovers_ = 0;
};

class HsReplicaFunction final : public core::Function {
 public:
  void on_install(core::HostApi& api, util::ByteView args) override;
  void on_message(core::HostApi& api, util::Bytes payload) override;

 private:
  ReplicaConfig config_;
  tor::HiddenServiceHost* host_ = nullptr;
  std::size_t load_ = 0;  // last observed, answered to PINGs
};

/// Registers both natives ("loadbalancer", "hs-replica").
void register_loadbalancer(core::NativeRegistry& registry);

/// Manifests for deploying them.
core::FunctionManifest loadbalancer_manifest();
core::FunctionManifest hs_replica_manifest();

}  // namespace bento::functions
