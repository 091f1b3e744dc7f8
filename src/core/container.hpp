// A Bento container: one client function plus everything that confines it
// (paper §5.2-§5.4).
//
// The container assembles, per function:
//   * a ResourceAccountant under the server's aggregate cap (cgroups),
//   * a SyscallFilter = manifest ∩ node policy (seccomp),
//   * a chrooted Vfs — in memory, sealed by FS-Protect for the
//     python-op-sgx image and plain for the python image, or on the
//     persistent sealed store,
//   * a NetFilter compiled from the host relay's exit policy (iptables),
//   * a StemSession (the Stem firewall),
// and hosts the function itself: a BentoScript interpreter whose bindings
// route through HostApi, or a registered native C++ function.
//
// Any sandbox violation or script error kills the function (never the
// server) and reports the reason to the client.
#pragma once

#include <memory>
#include <optional>

#include "core/api.hpp"
#include "core/message.hpp"
#include "core/stemfw.hpp"
#include "core/tokens.hpp"
#include "script/interp.hpp"
#include "sandbox/netfilter.hpp"
#include "sandbox/resources.hpp"
#include "sandbox/vfs.hpp"
#include "tee/conclave.hpp"
#include "tor/router.hpp"

namespace bento::core {

class BentoServer;
class BentoConnection;

/// Conclave transition cost charged per invocation in SGX mode (§7.3:
/// "the time to swap in and out of the conclave introduces nominal
/// overheads").
inline constexpr util::Duration kEcallOverhead = util::Duration::micros(60);

/// Startup cost of the enclaved CPython/requests stack for a clearnet fetch
/// from inside a conclave (Graphene-SGX application startup is measured in
/// seconds in [34]/[80]; calibrated against Table 2's small-site rows where
/// standard Tor beats Browser).
inline constexpr util::Duration kSgxFetchStackDelay = util::Duration::seconds(1.8);

class Container final : public HostApi {
 public:
  Container(BentoServer& server, std::uint64_t id, std::string image, util::Rng rng);
  ~Container() override;

  /// Per-function scoped stats: invocation volume and lifetime, read by
  /// BentoWorld::snapshot_stats() for the per-function telemetry section.
  struct FnStats {
    std::uint64_t invokes = 0;
    std::uint64_t bytes_in = 0;   // invoke payload bytes routed in
    std::uint64_t bytes_out = 0;  // Output message bytes sent back
    std::int64_t installed_at_us = -1;  // sim time of successful install
  };
  const FnStats& fn_stats() const { return fn_stats_; }

  std::uint64_t id() const { return id_; }
  const std::string& image() const { return image_; }
  bool sgx() const { return conclave_ != nullptr; }
  bool installed() const { return function_ != nullptr; }
  bool dead() const { return dead_; }
  const std::string& death_reason() const { return death_reason_; }
  const TokenPair& tokens() const { return tokens_; }
  const FunctionManifest& manifest() const { return manifest_; }
  tee::Conclave* conclave() { return conclave_.get(); }
  /// Non-null when the chroot is mounted on the persistent sealed store.
  store::BlobStore* blob_store() const { return store_.get(); }
  std::optional<tee::SecureChannel>& channel() { return channel_; }
  /// The operator's view of one chroot file held in memory: the stored body
  /// (ciphertext under FS-Protect), writable as the box's own disk is. Null
  /// when absent or when the chroot is on the persistent store.
  util::Bytes* stored_bytes(const std::string& path) const;

  /// Installs the function; throws (sandbox/script errors) on failure.
  /// `program` is the script image the server parsed (and statically
  /// verified) from `body`; null for a native function.
  void install(const FunctionManifest& manifest, const UploadBody& body,
               tor::Stream* uploader, std::shared_ptr<const script::Program> program);

  /// Routes one Invoke payload into the function.
  void handle_invoke(tor::Stream* from, util::ByteView payload);

  /// Graceful shutdown (shutdown token was presented).
  void graceful_shutdown();

  /// Server notice: a client stream went away.
  void on_stream_closed(tor::Stream* stream);

  /// Current memory watermark (sandbox estimate + conclave overhead).
  std::size_t memory_bytes() const;

  // ---- HostApi ----
  void send(util::ByteView payload) override;
  std::uint64_t reply_handle() override;
  void send_to(std::uint64_t handle, util::ByteView payload) override;
  void log(const std::string& line) override;
  void fs_write(const std::string& path, util::ByteView data) override;
  std::optional<util::Bytes> fs_read(const std::string& path) override;
  bool fs_remove(const std::string& path) override;
  std::vector<std::string> fs_list() override;
  void http_get(const std::string& url, HttpCallback done) override;
  util::Time now() override;
  void after(util::Duration delay, std::function<void()> fn) override;
  util::Bytes random_bytes(std::size_t n) override;
  void deploy(const DeploySpec& spec, DeployCallback done) override;
  void invoke_remote(const std::string& box_fingerprint,
                     util::ByteView invocation_token, util::ByteView payload,
                     std::function<void(util::Bytes output)> on_output) override;
  StemSession& stem() override;
  std::string box_fingerprint() const override;

 private:
  /// Runs function code, converting sandbox/script failures into death.
  template <typename Fn>
  void run_guarded(Fn&& fn);
  void kill(const std::string& reason);
  void update_memory(std::size_t sandbox_estimate);
  /// Opens, claims and replays the persistent store of function `name`.
  std::unique_ptr<sandbox::VfsBackend> mount_store(const std::string& name);
  /// Arms one background-compaction simulator event when the store's
  /// garbage ratio warrants it (called after the mount and after every
  /// fs_write/fs_remove); guarded by the liveness token. No-op while one is
  /// pending or without a store.
  void schedule_store_maintenance();

  BentoServer& server_;
  std::uint64_t id_;
  std::string image_;
  util::Rng rng_;

  FunctionManifest manifest_;
  sandbox::SyscallFilter filter_ = sandbox::SyscallFilter::deny_all();
  std::unique_ptr<sandbox::ResourceAccountant> resources_;
  std::unique_ptr<sandbox::Vfs> vfs_;
  /// FS-Protect for the python-op-sgx image, built at launch (its ephemeral
  /// key is drawn from rng_ before any token); install() mounts it.
  std::unique_ptr<tee::FsProtect> fs_protect_;
  sandbox::MemoryBackend* memory_ = nullptr;  // the mounted in-memory backend
  /// Persistent-store lifecycle: the container owns the BlobStore (open
  /// log and index); the underlying Volume belongs to the server's
  /// VolumeManager and survives crashes.
  std::unique_ptr<store::BlobStore> store_;
  bool compaction_pending_ = false;
  sandbox::NetFilter netfilter_ = sandbox::NetFilter::deny_all();
  std::unique_ptr<tee::Conclave> conclave_;
  std::optional<tee::SecureChannel> channel_;
  std::unique_ptr<StemSession> stem_;
  std::unique_ptr<Function> function_;
  FnStats fn_stats_;
  TokenPair tokens_;
  tor::Stream* bound_stream_ = nullptr;
  std::map<std::uint64_t, tor::Stream*> reply_handles_;
  std::uint64_t next_reply_handle_ = 1;
  std::vector<std::shared_ptr<BentoConnection>> deployed_;  // composition links
  // Liveness token: async callbacks (timers, TCP, remote outputs) captured
  // `this`; they check this token before touching the container.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  bool dead_ = false;
  bool in_function_ = false;
  std::string death_reason_;
};

/// Adapts a BentoScript program to the Function interface. The script may
/// define `on_install(args)`, `on_message(msg)`, `on_shutdown()`; module
/// bindings (api, fs, net, os, time, zlib, bento) wrap the HostApi.
class ScriptFunction final : public Function {
 public:
  /// Parses the source eagerly (syntax errors fail the upload). The options
  /// carry the container's step/memory hooks.
  ScriptFunction(const std::string& source, script::InterpreterOptions options);
  /// Reuses a program the server already parsed for static verification, so
  /// one upload costs one parse.
  ScriptFunction(std::shared_ptr<const script::Program> program,
                 script::InterpreterOptions options);
  void on_install(HostApi& api, util::ByteView args) override;
  void on_message(HostApi& api, util::Bytes payload) override;
  void on_shutdown(HostApi& api) override;

  const script::Interpreter& interpreter() const { return *interp_; }

 private:
  void bind_modules(HostApi& api);
  std::unique_ptr<script::Interpreter> interp_;
  bool bound_ = false;
};

}  // namespace bento::core
