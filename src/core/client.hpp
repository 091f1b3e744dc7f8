// The Bento client (paper §3, §5).
//
// Workflow (all asynchronous over Tor circuits):
//   1. find_boxes() — discover Bento-capable relays in the consensus and
//      read their advertised middlebox node policies;
//   2. connect()   — build a circuit ending at the chosen box and open a
//      stream to its Bento port;
//   3. get_policy()/spawn() — pick an image; for python-op-sgx the client
//      runs the attested-channel handshake and verifies the stapled IAS
//      report (measurement, TCB status, report signature);
//   4. upload()    — ship the function + manifest (sealed under the
//      channel in SGX mode) and receive the invocation/shutdown tokens;
//      install() is steps 3-4 as one call, spawning the manifest's image;
//   5. invoke()/outputs — drive the function; share the invocation token
//      freely while keeping the shutdown token private.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>

#include "core/message.hpp"
#include "core/policy.hpp"
#include "core/tokens.hpp"
#include "tee/conclave.hpp"
#include "tor/proxy.hpp"
#include "util/time.hpp"

namespace bento::core {

/// invoke_reliable's recovery (DESIGN.md §9): total invoke attempts (the
/// first try included), the per-attempt request timeout and the capped
/// exponential backoff between attempts.
inline constexpr int kMaxAttempts = 4;
inline constexpr util::Duration kRequestTimeout = util::Duration::seconds(8);
inline constexpr util::Duration kBackoffBase = util::Duration::seconds(1);
inline constexpr util::Duration kBackoffCap = util::Duration::seconds(16);
/// Deterministic backoff jitter: each backoff is scaled by a uniform draw in
/// [1 - kRetryJitter, 1 + kRetryJitter] from the proxy's seeded Rng.
inline constexpr double kRetryJitter = 0.25;
/// Circuit builds a connect may burn; a rebuild reroutes around the hop the
/// failed build died at.
inline constexpr int kBuildAttempts = 2;

struct BentoClientConfig {
  tor::Port bento_port = kBentoPort;
  /// IAS report-signing key, for verifying stapled attestation reports.
  crypto::Gp ias_public_key = 0;
  /// Expected measurement of the Bento runtime image. A python-op-sgx spawn
  /// also refuses a box whose TCB is out of date.
  tee::Measurement expected_runtime{};
};

/// One client<->box session (one circuit, one stream, one container).
class BentoConnection : public std::enable_shared_from_this<BentoConnection> {
 public:
  using OutputFn = std::function<void(util::Bytes)>;
  using PolicyFn = std::function<void(std::optional<MiddleboxPolicy>)>;
  using SpawnFn = std::function<void(bool ok, std::string error)>;
  using UploadFn = std::function<void(std::optional<TokenPair>, std::string error)>;
  using SimpleFn = std::function<void(bool ok)>;

  void get_policy(PolicyFn done);
  /// Spawns a container of the given image; runs attestation for
  /// python-op-sgx.
  void spawn(const std::string& image, SpawnFn done);
  void upload(const FunctionManifest& manifest, const std::string& source,
              const std::string& native, util::ByteView args, UploadFn done);
  /// Puts a function on the box: spawns `manifest.image` (attesting it for
  /// python-op-sgx) and uploads once the spawn succeeds. `done` fires
  /// exactly once, with the tokens or the failing step's error text. The
  /// caller keeps the connection alive until then.
  void install(const FunctionManifest& manifest, const std::string& source,
               const std::string& native, util::ByteView args, UploadFn done);
  /// Fire-and-stream: outputs arrive via the output handler.
  void invoke(util::ByteView invocation_token, util::ByteView payload);
  void set_output_handler(OutputFn fn) { output_ = std::move(fn); }
  void shutdown(util::ByteView shutdown_token, SimpleFn done);
  /// Fired once when the stream dies under us (relay crash, remote destroy)
  /// — the hook retry layers use to re-connect promptly.
  void set_on_close(std::function<void()> fn) { on_close_ = std::move(fn); }
  /// Ends the stream and tears down the circuit.
  void close();

  std::uint64_t container_id() const { return container_id_; }
  /// Fingerprints of the relays on this connection's circuit.
  std::vector<std::string> path_fingerprints() const;
  /// Raw stream bytes received (pre-framing) — lets callers observe
  /// progressive delivery of a large Output message.
  std::size_t raw_bytes_received() const { return raw_bytes_; }
  bool attested() const { return channel_.has_value(); }
  bool open() const { return stream_ != nullptr; }
  /// True once the connection has been close()d or its stream has died —
  /// distinct from !open(), which is also true before the stream comes up.
  bool closed() const { return closed_; }
  const std::string& box_fingerprint() const { return box_; }

 private:
  friend class BentoClient;
  BentoConnection() = default;
  void on_stream_data(util::ByteView data);
  void on_stream_end();
  /// A malformed or oversized frame from the box: fail everything waiting
  /// and close, so the bytes never escape the simulation as an exception.
  void reject_stream(const std::string& why);
  /// Ends the in-flight invoke span and answers every pending request with
  /// an Error carrying `why`, then fires on_close_.
  void fail_pending(const std::string& why);
  void send_msg(const Message& msg);
  void expect(std::function<void(const Message&)> handler);

  tor::OnionProxy* proxy_ = nullptr;
  BentoClientConfig config_;
  std::string box_;
  tor::CircuitOrigin* circuit_ = nullptr;
  tor::Stream* stream_ = nullptr;
  bool closed_ = false;
  StreamFramer framer_;
  std::size_t raw_bytes_ = 0;
  std::deque<std::function<void(const Message&)>> pending_;
  // Open ClientInvoke span for the in-flight invoke (0 when none): invoke()
  // is fire-and-stream, so the span closes on the first Output back — or
  // with ok=false if the stream dies first (orphan handling).
  std::uint32_t invoke_span_ = 0;
  OutputFn output_;
  std::function<void()> on_close_;
  std::uint64_t container_id_ = 0;
  crypto::DhKeyPair channel_eph_;
  std::optional<tee::SecureChannel> channel_;
  std::string spawned_image_;
};

class BentoClient {
 public:
  BentoClient(tor::OnionProxy& proxy, BentoClientConfig config)
      : proxy_(proxy), config_(std::move(config)) {}

  /// Fingerprints of relays advertising Bento in the consensus.
  static std::vector<std::string> find_boxes(const tor::Consensus& consensus);
  /// The policy a relay disseminates in its descriptor (paper §5.5), if any.
  static std::optional<MiddleboxPolicy> advertised_policy(
      const tor::RelayDescriptor& descriptor);

  /// Builds a circuit to the box and opens the Bento stream; hands back a
  /// live connection or nullptr.
  void connect(const std::string& box_fingerprint,
               std::function<void(std::shared_ptr<BentoConnection>)> done);
  /// Same, excluding relays from the path (multipath clients use this to
  /// keep their circuits disjoint, mTor-style).
  void connect(const std::string& box_fingerprint,
               std::vector<std::string> excluded_relays,
               std::function<void(std::shared_ptr<BentoConnection>)> done);

  /// Idempotent at-least-once invocation (DESIGN.md §9): connects, invokes
  /// the token, and delivers the first Output. On connect failure, stream
  /// death, or request timeout it backs off (capped exponential, seeded
  /// jitter) and retries on a fresh circuit that excludes relays observed
  /// failing, up to kMaxAttempts. The invocation token routes every
  /// attempt to the same container, so re-invocation is idempotent from the
  /// caller's view. `done(ok, first_output, attempts)` fires exactly once.
  using ReliableInvokeFn =
      std::function<void(bool ok, util::Bytes output, int attempts)>;
  void invoke_reliable(const std::string& box_fingerprint,
                       util::Bytes invocation_token, util::Bytes payload,
                       ReliableInvokeFn done);

  tor::OnionProxy& proxy() { return proxy_; }
  const BentoClientConfig& config() const { return config_; }

  /// Drops keep-alive anchors for closed connections. connect() calls this
  /// on every new connection, so a long-lived client does not accumulate
  /// dead sessions; callers that tear down a connection and want its memory
  /// back immediately can call it directly.
  void prune_closed();
  /// Connections currently anchored (open or awaiting prune) — observability
  /// for tests and leak triage.
  std::size_t live_connections() const { return live_.size(); }

 private:
  tor::OnionProxy& proxy_;
  BentoClientConfig config_;
  std::vector<std::shared_ptr<BentoConnection>> live_;  // keep-alive anchors
};

}  // namespace bento::core
