// The Bento function API (paper §5.1, §5.3).
//
// A Function — BentoScript or native C++ — interacts with the world only
// through HostApi, the container's mediation layer. Every method checks
// the function's installed syscall filter (manifest ∩ node policy), its
// resource accountant, and — for direct network access — the netfilter
// compiled from the host relay's exit policy.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "script/analyzer.hpp"
#include "tor/address.hpp"
#include "util/bytes.hpp"
#include "util/time.hpp"

namespace bento::core {

class StemSession;

// ---- static admission control (load-time verifier) ----

/// How the server treats the BentoScript static verifier at upload time.
///   Warn    — run the verifier, log findings, never reject
///   Enforce — reject uploads with analysis errors, inferred capabilities
///             beyond the manifest, or a static cost above the manifest's
///             resource ceiling
enum class VerifyMode : std::uint8_t { Warn, Enforce };

/// Full verifier output for one upload: the admission decision plus the raw
/// analysis (diagnostics, inferred capabilities, static cost).
struct VerifyReport {
  PolicyDecision decision{true, ""};
  script::AnalysisResult analysis;
};

/// Statically verifies a parsed function image against its manifest:
/// (a) lint errors fail admission, (b) every inferred capability must be in
/// manifest.required, (c) the static lower bound on interpreter steps must
/// fit manifest.resources.cpu_instructions. Reasons carry source lines so
/// the uploading client learns *why* (and where) it was refused.
VerifyReport verify_upload(const script::Program& program,
                           const FunctionManifest& manifest);

/// URL of the form "http://<dotted-addr>[:port]/<path>".
struct ParsedUrl {
  tor::Endpoint endpoint;
  std::string path = "/";
};
/// Throws std::invalid_argument on malformed URLs.
ParsedUrl parse_url(const std::string& url);

class HostApi {
 public:
  virtual ~HostApi() = default;

  // -- invoker channel --
  /// Sends an Output message to the client bound to the current invocation.
  virtual void send(util::ByteView payload) = 0;
  /// A stable handle for the *current* invoker's channel; lets a function
  /// serving several clients concurrently (e.g. multipath stripes) reply to
  /// each on its own stream later. 0 = no channel.
  virtual std::uint64_t reply_handle() = 0;
  /// Sends to a specific channel captured earlier; silently drops if that
  /// client's stream has closed.
  virtual void send_to(std::uint64_t handle, util::ByteView payload) = 0;
  /// Operator-visible log line (never contains function data in SGX mode).
  virtual void log(const std::string& line) = 0;

  // -- filesystem (chrooted; FsProtect-backed under python-op-sgx) --
  virtual void fs_write(const std::string& path, util::ByteView data) = 0;
  virtual std::optional<util::Bytes> fs_read(const std::string& path) = 0;
  virtual bool fs_remove(const std::string& path) = 0;
  virtual std::vector<std::string> fs_list() = 0;

  // -- direct clearnet (exit relays only; netfilter enforced) --
  using HttpCallback = std::function<void(bool ok, util::Bytes body)>;
  virtual void http_get(const std::string& url, HttpCallback done) = 0;

  // -- clock & randomness --
  virtual util::Time now() = 0;
  virtual void after(util::Duration delay, std::function<void()> fn) = 0;
  virtual util::Bytes random_bytes(std::size_t n) = 0;

  // -- composition: run functions on other Bento boxes (paper §3) --
  struct DeploySpec {
    std::string box_fingerprint;
    FunctionManifest manifest;
    std::string source;  // BentoScript; empty for native
    std::string native;  // native function name; empty for script
    util::Bytes args;
  };
  /// ok => the remote function's tokens (shutdown kept by the deployer).
  using DeployCallback = std::function<void(bool ok, util::Bytes invocation_token,
                                            util::Bytes shutdown_token)>;
  virtual void deploy(const DeploySpec& spec, DeployCallback done) = 0;
  /// Invokes a function on another box; outputs stream into on_output.
  virtual void invoke_remote(const std::string& box_fingerprint,
                             util::ByteView invocation_token, util::ByteView payload,
                             std::function<void(util::Bytes output)> on_output) = 0;

  // -- Tor control through the Stem firewall (paper §5.3) --
  virtual StemSession& stem() = 0;

  /// This box's fingerprint (self-identification, e.g. for LoadBalancer).
  virtual std::string box_fingerprint() const = 0;
};

/// A loaded function instance.
class Function {
 public:
  virtual ~Function() = default;
  /// Called once after upload with the client-provided install args.
  virtual void on_install(HostApi& api, util::ByteView args) = 0;
  /// Called for every Invoke payload, which the function then owns.
  virtual void on_message(HostApi& api, util::Bytes payload) = 0;
  /// Called on graceful shutdown (shutdown token presented).
  virtual void on_shutdown(HostApi& api) { (void)api; }
};

using FunctionFactory = std::function<std::unique_ptr<Function>()>;

/// Registry of native (C++-implemented) functions a server offers.
class NativeRegistry {
 public:
  void add(const std::string& name, FunctionFactory factory);
  std::unique_ptr<Function> create(const std::string& name) const;
  bool has(const std::string& name) const;

 private:
  std::map<std::string, FunctionFactory> factories_;
};

}  // namespace bento::core
