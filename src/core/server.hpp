// The Bento server (paper §5.2).
//
// Runs on the same machine as its companion Tor relay, as a separate
// process on a separate port: here, a stream acceptor bound to the relay's
// Bento port (clients reach it through Tor streams to the relay's own
// address — the paper's "exit node policy to connect to the Bento server
// via localhost" deployment), plus a companion onion-proxy node
// representing the Stem-controlled Tor access functions get through the
// firewall.
//
// Responsibilities: answer policy queries, spawn containers (optionally
// inside conclaves, with the attested-channel handshake and a stapled IAS
// report), admit manifests against the middlebox node policy, mint
// invocation/shutdown tokens, route invocations by token, and reclaim
// containers on shutdown or death.
#pragma once

#include <map>
#include <memory>

#include "core/client.hpp"
#include "core/container.hpp"
#include "core/message.hpp"
#include "core/policy.hpp"
#include "sandbox/resources.hpp"
#include "store/volume.hpp"
#include "tee/attestation.hpp"
#include "tee/epc.hpp"
#include "tor/proxy.hpp"
#include "tor/router.hpp"

namespace bento::core {

struct BentoServerConfig {
  tor::Port port = kBentoPort;
  MiddleboxPolicy policy = MiddleboxPolicy::permissive();
  bool sgx_available = true;
  /// Static admission control over uploaded BentoScript images. Warn runs
  /// the verifier on every upload and logs findings without changing
  /// admission; Enforce rejects before the container ever executes.
  VerifyMode verify = VerifyMode::Warn;
  /// Mount containers' chroots on the persistent sealed blob store
  /// (src/store, DESIGN.md §15): durable state keyed by function name that
  /// survives crash() and is replayed when a container mounts it. Off by
  /// default — the in-memory VFS keeps the paper's ephemeral semantics.
  bool persistent_store = false;
};

class BentoServer {
 public:
  BentoServer(sim::Simulator& sim, sim::Network& net, tor::Router& router,
              tor::DirectoryAuthority& directory, const tor::Consensus& consensus,
              tee::IntelAttestationService& ias, const NativeRegistry& natives,
              BentoServerConfig config, util::Rng rng);

  /// The canonical Bento execution-environment image. Its measurement is
  /// what clients attest — per §5.4, "the only code needing attestation is
  /// the Bento execution environment (including Python), not the
  /// individual user functions."
  static util::Bytes runtime_image();
  static tee::Measurement runtime_measurement();

  const BentoServerConfig& config() const { return config_; }
  const MiddleboxPolicy& policy() const { return config_.policy; }
  std::string fingerprint() const { return router_.fingerprint(); }

  // Environment accessors used by containers.
  sim::Simulator& simulator() { return sim_; }
  tor::Router& router() { return router_; }
  tor::OnionProxy& stem_proxy() { return *stem_proxy_; }
  tor::DirectoryAuthority& directory() { return directory_; }
  const NativeRegistry& natives() const { return natives_; }
  sandbox::AggregateAccountant& aggregate() { return aggregate_; }
  tee::Platform& platform() { return platform_; }
  /// How a client reaches and attests a box like this one, for the world's
  /// clients and for a function's compositions (bento.deploy, bento.invoke).
  BentoClientConfig client_config() const {
    return {config_.port, ias_.public_key(), runtime_measurement()};
  }
  tee::EpcManager& epc() { return epc_; }
  util::Rng& rng() { return rng_; }

  // ---- persistent sealed blob store (DESIGN.md §15) ----
  bool persistent_store() const { return config_.persistent_store; }
  /// The node's durable media. Lives here — not in any container — because
  /// disks outlive the processes that crash on top of them. A volume is
  /// claimed by the live container whose store is mounted on it
  /// (Container::mount_store).
  store::VolumeManager& volumes() { return volumes_; }

  /// Frames + sends a protocol message down a client stream.
  void send_to_stream(tor::Stream* stream, const Message& msg);
  /// Container committed suicide (sandbox violation / script error).
  void container_died(std::uint64_t id, const std::string& reason);

  /// Simulates the whole box process crashing: every container, conclave
  /// and client connection is dropped without telling anyone (a dead
  /// process sends nothing). Chaos harnesses call this from node handlers.
  void crash();

  std::size_t live_containers() const { return containers_.size(); }
  /// Total container memory (for the §7.3 scalability experiment).
  std::size_t total_memory_bytes() const;
  /// Read-only view of live containers, id-ordered (snapshot_stats walks
  /// these for the per-function telemetry section).
  std::vector<const Container*> containers() const;

  struct Counters {
    std::uint64_t spawns = 0;
    std::uint64_t uploads = 0;
    std::uint64_t rejected_manifests = 0;
    /// Uploads refused by the static verifier (Enforce mode only).
    std::uint64_t rejected_static = 0;
    std::uint64_t invokes = 0;
    std::uint64_t shutdowns = 0;
    std::uint64_t deaths = 0;
  };
  const Counters& counters() const { return counters_; }

 private:
  /// A client's stream to the Bento port: its bytes are framed messages.
  bool accept_stream(tor::Stream& stream);
  void handle_message(tor::Stream* stream, const Message& msg);
  void handle_spawn(tor::Stream* stream, const Message& msg);
  void handle_upload(tor::Stream* stream, const Message& msg);
  void handle_invoke(tor::Stream* stream, const Message& msg);
  void handle_shutdown(tor::Stream* stream, const Message& msg);
  void reply_error(tor::Stream* stream, const std::string& text);
  /// Answers a malformed frame: Error to the sender, then the stream ends
  /// and its framer is dropped (counted as bento.server.rejected).
  void reject_stream(tor::Stream* stream, const std::string& why);
  Container* find_by_invocation(util::ByteView token);
  Container* find_by_shutdown(util::ByteView token);
  void remove_container(std::uint64_t id);

  sim::Simulator& sim_;
  tor::Router& router_;
  tor::DirectoryAuthority& directory_;
  tee::IntelAttestationService& ias_;
  const NativeRegistry& natives_;
  BentoServerConfig config_;
  util::Rng rng_;
  tee::Platform platform_;
  tee::EpcManager epc_;
  sandbox::AggregateAccountant aggregate_;
  store::VolumeManager volumes_;
  std::unique_ptr<tor::OnionProxy> stem_proxy_;

  struct ClientConn {
    StreamFramer framer;
  };
  std::map<tor::Stream*, ClientConn> conns_;
  std::map<std::uint64_t, std::unique_ptr<Container>> containers_;
  std::uint64_t next_container_id_ = 1;
  Counters counters_;
};

}  // namespace bento::core
