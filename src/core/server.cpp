#include "core/server.hpp"

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "script/parser.hpp"
#include "util/log.hpp"
#include "util/serialize.hpp"

namespace bento::core {

namespace {
constexpr char kComponent[] = "bento.server";

// Fleet-wide function lifecycle counters; the per-server Counters struct
// stays as the scoped view, these feed the global registry snapshot.
struct ServerMetrics {
  obs::Counter uploads = obs::registry().counter("bento.uploads");
  obs::Counter invokes = obs::registry().counter("bento.invokes");
  obs::Counter shutdowns = obs::registry().counter("bento.shutdowns");
  obs::Counter token_failures = obs::registry().counter("bento.token_failures");
  obs::Counter policy_denials = obs::registry().counter("bento.policy_denials");
};
ServerMetrics& server_metrics() {
  static ServerMetrics m;
  return m;
}
}  // namespace

util::Bytes BentoServer::runtime_image() {
  // Canonical bytes of the execution environment: in a real deployment this
  // is the container image (Graphene + Python + the Bento loader); here a
  // versioned constant whose hash plays the MRENCLAVE role.
  return util::to_bytes(
      "bento-runtime v1.0 | graphene-sgx 1.1 | python 3.6 | loader 2021-08");
}

tee::Measurement BentoServer::runtime_measurement() {
  return tee::measure(runtime_image());
}

BentoServer::BentoServer(sim::Simulator& sim, sim::Network& net, tor::Router& router,
                         tor::DirectoryAuthority& directory,
                         const tor::Consensus& consensus,
                         tee::IntelAttestationService& ias,
                         const NativeRegistry& natives, BentoServerConfig config,
                         util::Rng rng)
    : sim_(sim),
      router_(router),
      directory_(directory),
      ias_(ias),
      natives_(natives),
      config_(std::move(config)),
      rng_(rng),
      platform_(rng_.next_u64(), ias.current_tcb(), rng_),
      aggregate_(config_.aggregate_limits),
      // Seeded from the fingerprint (FNV-1a), NOT from rng_: the durable
      // media must not perturb the server's existing random streams, and
      // torn-tail draws stay a function of the node identity alone.
      volumes_([&router] {
        std::uint64_t h = 1469598103934665603ull;
        for (const char c : router.fingerprint()) {
          h ^= static_cast<std::uint8_t>(c);
          h *= 1099511628211ull;
        }
        return h;
      }()) {
  ias_.provision(platform_);
  // The companion onion proxy: the Stem-firewalled Tor access functions
  // get. Its node is "localhost" relative to the relay.
  const sim::NodeId op_node = net.add_node(
      {router_.descriptor().nickname + "-op", 12.5e6, 12.5e6}, nullptr);
  stem_proxy_ = std::make_unique<tor::OnionProxy>(
      sim_, net, op_node, consensus, directory.authority_key(), rng_.fork());
  net.attach(op_node, stem_proxy_.get());
  net.set_latency(op_node, router_.node(), util::Duration::micros(50));
  router_.bind_local_app(config_.port, this);
}

std::vector<const Container*> BentoServer::containers() const {
  std::vector<const Container*> out;
  out.reserve(containers_.size());
  for (const auto& [id, container] : containers_) out.push_back(container.get());
  return out;
}

std::size_t BentoServer::total_memory_bytes() const {
  std::size_t total = 0;
  for (const auto& [id, container] : containers_) total += container->memory_bytes();
  return total;
}

bool BentoServer::on_stream_open(tor::EdgeStream& stream) {
  tor::EdgeStream* ptr = &stream;
  // No function may hold a message larger than its memory limit, so no
  // client needs a longer frame.
  conns_.try_emplace(ptr,
                     ClientConn{StreamFramer(config_.policy.max_per_function.memory_bytes)});
  stream.set_on_data([this, ptr](util::ByteView data) {
    auto it = conns_.find(ptr);
    if (it == conns_.end()) return;
    std::vector<Message> msgs;
    try {
      msgs = it->second.framer.feed(data);
    } catch (const util::ParseError& e) {
      // Anonymous client bytes are untrusted: a malformed frame costs the
      // sender its stream, never the box.
      reject_stream(ptr, e.what());
      return;
    }
    for (const Message& msg : msgs) handle_message(ptr, msg);
  });
  stream.set_on_end([this, ptr] {
    conns_.erase(ptr);
    for (auto& [id, container] : containers_) container->on_stream_closed(ptr);
  });
  return true;
}

void BentoServer::reject_stream(tor::EdgeStream* stream, const std::string& why) {
  // Registered on first use, so runs without a rejection keep their metric set.
  static obs::Counter rejected = obs::registry().counter("bento.server.rejected");
  rejected.inc();
  util::log_info(kComponent, fingerprint(), ": rejecting stream: ", why);
  conns_.erase(stream);
  for (auto& [id, container] : containers_) container->on_stream_closed(stream);
  reply_error(stream, "malformed frame: " + why);
  // Last: ending a flushed stream destroys it, and with it this callback.
  stream->end();
}

void BentoServer::send_to_stream(tor::EdgeStream* stream, const Message& msg) {
  if (stream == nullptr) return;
  stream->send(StreamFramer::frame(msg));
}

void BentoServer::reply_error(tor::EdgeStream* stream, const std::string& text) {
  Message err;
  err.type = MsgType::Error;
  err.text = text;
  send_to_stream(stream, err);
}

void BentoServer::handle_message(tor::EdgeStream* stream, const Message& msg) {
  // Child of the client's request span (inert when untraced): everything
  // the box does for this message — attestation, verification, dispatch —
  // nests under one server.handle span.
  obs::SpanScope span(obs::Stage::ServerHandle,
                      static_cast<std::uint32_t>(msg.container_id));
  switch (msg.type) {
    case MsgType::GetPolicy: {
      Message reply;
      reply.type = MsgType::PolicyReply;
      reply.blob = config_.policy.serialize();
      send_to_stream(stream, reply);
      return;
    }
    case MsgType::Spawn: handle_spawn(stream, msg); return;
    case MsgType::Upload: handle_upload(stream, msg); return;
    case MsgType::Invoke: handle_invoke(stream, msg); return;
    case MsgType::Shutdown: handle_shutdown(stream, msg); return;
    default:
      reply_error(stream, "unexpected message type");
      return;
  }
}

void BentoServer::handle_spawn(tor::EdgeStream* stream, const Message& msg) {
  if (!config_.policy.offers_image(msg.text)) {
    reply_error(stream, "image not offered: " + msg.text);
    return;
  }
  if (msg.text == kImagePythonOpSgx && !config_.sgx_available) {
    reply_error(stream, "no SGX on this box");
    return;
  }
  if (containers_.size() >= static_cast<std::size_t>(config_.max_containers)) {
    reply_error(stream, "container limit reached");
    return;
  }

  const std::uint64_t id = next_container_id_++;
  std::unique_ptr<Container> container;
  try {
    container = std::make_unique<Container>(*this, id, msg.text, rng_.fork());
  } catch (const tee::EpcExhausted& e) {
    reply_error(stream, std::string("EPC exhausted: ") + e.what());
    return;
  }

  Message reply;
  reply.type = MsgType::SpawnReply;
  reply.container_id = id;

  if (msg.text == kImagePythonOpSgx) {
    // Attested channel handshake + stapled IAS report (paper §5.4).
    obs::SpanScope attest_span(obs::Stage::Attest, static_cast<std::uint32_t>(id));
    tee::SecureChannel::Hello hello;
    try {
      hello = tee::SecureChannel::Hello::from_bytes(msg.blob2);
    } catch (const std::exception&) {
      attest_span.set_ok(false);
      reply_error(stream, "malformed channel hello");
      return;
    }
    tee::SecureChannel::Accept accept;
    auto channel = tee::SecureChannel::server_accept(hello, container->conclave()->runtime(),
                                                     rng_, &accept);
    auto report =
        ias_.verify_quote(accept.quote, static_cast<std::uint64_t>(sim_.now().micros()));
    if (!report.has_value()) {
      attest_span.set_ok(false);
      reply_error(stream, "IAS refused quote");
      return;
    }
    container->channel() = std::move(channel);
    reply.blob = report->serialize();
    reply.blob2 = accept.to_bytes();
  }

  containers_[id] = std::move(container);
  ++counters_.spawns;
  send_to_stream(stream, reply);
}

void BentoServer::handle_upload(tor::EdgeStream* stream, const Message& msg) {
  auto it = containers_.find(msg.container_id);
  if (it == containers_.end()) {
    reply_error(stream, "no such container");
    return;
  }
  Container& container = *it->second;
  if (container.installed()) {
    reply_error(stream, "container already has a function");
    return;
  }

  util::Bytes body_bytes = msg.blob;
  if (container.channel().has_value()) {
    auto opened = container.channel()->open(body_bytes);
    if (!opened.has_value()) {
      reply_error(stream, "upload failed channel authentication");
      return;
    }
    body_bytes = std::move(*opened);
  }

  UploadBody body;
  FunctionManifest manifest;
  try {
    body = UploadBody::deserialize(body_bytes);
    manifest = FunctionManifest::deserialize(body.manifest);
  } catch (const util::ParseError& e) {
    reply_error(stream, std::string("malformed upload: ") + e.what());
    return;
  }
  if (manifest.image != container.image()) {
    reply_error(stream, "manifest image does not match container");
    return;
  }
  if (!body.native.empty() && !natives_.has(body.native)) {
    reply_error(stream, "unknown native function: " + body.native);
    return;
  }

  const PolicyDecision decision = admit(config_.policy, manifest);
  if (!decision.admitted) {
    ++counters_.rejected_manifests;
    server_metrics().policy_denials.inc();
    obs::trace(obs::Ev::PolicyDeny, static_cast<std::uint32_t>(msg.container_id),
               0, /*ok=*/false);
    reply_error(stream, "manifest rejected: " + decision.reason);
    return;
  }

  // Script images are parsed once here; the parsed program feeds both the
  // static verifier and (on admission) the container's interpreter.
  std::shared_ptr<const script::Program> program;
  if (body.native.empty()) {
    try {
      program = script::parse(body.source);
    } catch (const script::SyntaxError& e) {
      reply_error(stream, std::string("install failed: syntax error: ") + e.what());
      remove_container(msg.container_id);
      return;
    }
    if (config_.verify != VerifyMode::Off) {
      const VerifyReport report = verify_upload(*program, manifest);
      for (const auto& d : report.analysis.diagnostics) {
        util::log_info(kComponent, "verify[", manifest.name, "]: ", d.to_string());
      }
      if (!report.decision.admitted) {
        if (config_.verify == VerifyMode::Enforce) {
          ++counters_.rejected_static;
          server_metrics().policy_denials.inc();
          obs::trace(obs::Ev::PolicyDeny,
                     static_cast<std::uint32_t>(msg.container_id), 1,
                     /*ok=*/false);
          reply_error(stream, "upload rejected by static verifier: " +
                                  report.decision.reason);
          remove_container(msg.container_id);
          return;
        }
        util::log_info(kComponent, "verify[", manifest.name,
                       "] would reject (mode=warn): ", report.decision.reason);
      }
    }
  }

  try {
    container.install(manifest, body, stream, std::move(program));
  } catch (const std::exception& e) {
    // If the container killed itself it already reported the reason.
    if (!container.dead()) reply_error(stream, std::string("install failed: ") + e.what());
    remove_container(msg.container_id);
    return;
  }

  ++counters_.uploads;
  server_metrics().uploads.inc();
  obs::trace(obs::Ev::FnUpload, static_cast<std::uint32_t>(msg.container_id),
             body.source.size());
  UploadReplyBody reply_body;
  reply_body.invocation_token = container.tokens().invocation.bytes();
  reply_body.shutdown_token = container.tokens().shutdown.bytes();
  Message reply;
  reply.type = MsgType::UploadReply;
  reply.container_id = msg.container_id;
  util::Bytes serialized = reply_body.serialize();
  reply.blob = container.channel().has_value() ? container.channel()->seal(serialized)
                                               : serialized;
  send_to_stream(stream, reply);
}

void BentoServer::handle_invoke(tor::EdgeStream* stream, const Message& msg) {
  Container* container = find_by_invocation(msg.token);
  if (container == nullptr) {
    server_metrics().token_failures.inc();
    obs::trace(obs::Ev::TokenCheck, 0, 0, /*ok=*/false);
    reply_error(stream, "bad invocation token");
    return;
  }
  obs::trace(obs::Ev::TokenCheck, static_cast<std::uint32_t>(container->id()), 0);
  ++counters_.invokes;
  server_metrics().invokes.inc();
  obs::trace(obs::Ev::FnInvoke, static_cast<std::uint32_t>(container->id()),
             msg.blob.size());
  container->handle_invoke(stream, msg.blob);
}

void BentoServer::handle_shutdown(tor::EdgeStream* stream, const Message& msg) {
  Container* container = find_by_shutdown(msg.token);
  if (container == nullptr) {
    server_metrics().token_failures.inc();
    obs::trace(obs::Ev::TokenCheck, 0, 1, /*ok=*/false);
    reply_error(stream, "bad shutdown token");
    return;
  }
  obs::trace(obs::Ev::TokenCheck, static_cast<std::uint32_t>(container->id()), 1);
  ++counters_.shutdowns;
  server_metrics().shutdowns.inc();
  obs::trace(obs::Ev::FnShutdown, static_cast<std::uint32_t>(container->id()));
  container->graceful_shutdown();
  remove_container(container->id());
  Message ok;
  ok.type = MsgType::Ok;
  send_to_stream(stream, ok);
}

Container* BentoServer::find_by_invocation(util::ByteView token) {
  for (auto& [id, container] : containers_) {
    if (container->tokens().invocation.matches(token)) return container.get();
  }
  return nullptr;
}

Container* BentoServer::find_by_shutdown(util::ByteView token) {
  for (auto& [id, container] : containers_) {
    if (container->tokens().shutdown.matches(token)) return container.get();
  }
  return nullptr;
}

void BentoServer::container_died(std::uint64_t id, const std::string& reason) {
  ++counters_.deaths;
  util::log_info(kComponent, fingerprint(), ": reclaiming container ", id, " (",
                 reason, ")");
  remove_container(id);
}

void BentoServer::crash() {
  util::log_warn(kComponent, fingerprint(), ": simulated crash; dropping ",
                 containers_.size(), " containers");
  counters_.deaths += containers_.size();
  conns_.clear();
  // A dead process releases no claims: clear each doomed container's volume
  // key so its (deferred) destructor cannot release a name a post-restart
  // container has since re-claimed.
  for (auto& [id, container] : containers_) container->store_volume_key_.clear();
  // Same deferral as remove_container: a chaos handler may reach this from
  // inside a container's own call stack.
  auto doomed = std::make_shared<std::map<std::uint64_t, std::unique_ptr<Container>>>(
      std::move(containers_));
  containers_.clear();
  sim_.after(util::Duration::micros(0), [doomed] {});
  // Durable media take the crash too: unsynced bytes vanish, the active
  // segment keeps a deterministic torn prefix. Everything RAM-resident
  // about the stores (staged recoveries, name claims) dies with the
  // process; the Volumes themselves survive inside volumes_.
  recovered_.clear();
  open_store_names_.clear();
  volumes_.crash();
}

std::unique_ptr<store::BlobStore> BentoServer::take_or_open_store(
    const std::string& name, std::string* volume_key) {
  // Duplicate live functions under one name must not share a log: the
  // second claimant gets a uniquified volume (durable only under that
  // exact suffix — acceptable for replicas, which rebuild from their
  // primary anyway).
  std::string key = name;
  for (std::uint64_t n = 2; open_store_names_.contains(key); ++n) {
    key = name + "#" + std::to_string(n);
  }
  open_store_names_.insert(key);
  if (volume_key != nullptr) *volume_key = key;

  auto staged = recovered_.find(key);
  if (staged != recovered_.end()) {
    std::unique_ptr<store::BlobStore> blob = std::move(staged->second);
    recovered_.erase(staged);
    return blob;
  }
  std::unique_ptr<store::Sealer> sealer =
      config_.sgx_available
          ? tee::make_store_sealer(platform_, runtime_measurement(), key)
          : store::make_null_sealer();
  auto blob = std::make_unique<store::BlobStore>(
      volumes_.open(key), std::move(sealer), config_.store_options);
  if (blob->volume().total_bytes() > 0) blob->replay();
  return blob;
}

void BentoServer::release_store_name(const std::string& volume_key) {
  open_store_names_.erase(volume_key);
}

std::vector<std::pair<std::string, store::ReplayReport>>
BentoServer::recover_stores() {
  std::vector<std::pair<std::string, store::ReplayReport>> reports;
  for (const std::string& key : volumes_.keys()) {
    if (open_store_names_.contains(key) || recovered_.contains(key)) continue;
    std::unique_ptr<store::Sealer> sealer =
        config_.sgx_available
            ? tee::make_store_sealer(platform_, runtime_measurement(), key)
            : store::make_null_sealer();
    auto blob = std::make_unique<store::BlobStore>(
        volumes_.open(key), std::move(sealer), config_.store_options);
    reports.emplace_back(key, blob->replay());
    recovered_.emplace(key, std::move(blob));
  }
  return reports;
}

void BentoServer::remove_container(std::uint64_t id) {
  auto it = containers_.find(id);
  if (it == containers_.end()) return;
  // Deferred: removal is frequently reached from inside the container's own
  // call stack (kill during install/invoke).
  std::shared_ptr<Container> doomed(std::move(it->second));
  containers_.erase(it);
  // The store name claim must not outlive the container's removal from the
  // table: a respawn of the same function within this event cascade would
  // otherwise be uniquified onto an empty "name#2" volume and silently lose
  // its durable state. Release eagerly; clearing the key makes the deferred
  // destructor's release a no-op.
  if (!doomed->store_volume_key_.empty()) {
    release_store_name(doomed->store_volume_key_);
    doomed->store_volume_key_.clear();
  }
  sim_.after(util::Duration::micros(0), [doomed] {});
}

}  // namespace bento::core
