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
// Operator-level cap over all containers together (paper §6.2).
constexpr sandbox::ResourceLimits kAggregateLimits{
    .memory_bytes = 512ull << 20,
    .cpu_instructions = 4'000'000'000ULL,
    .disk_bytes = 1ull << 30,
    .network_bytes = 8ull << 30,
};
// Live containers one box hosts at a time.
constexpr std::size_t kMaxContainers = 64;

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
      aggregate_(kAggregateLimits),
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
  stem_proxy_ = std::make_unique<tor::OnionProxy>(
      sim_, net, sim::NodeSpec{router_.descriptor().nickname + "-op", 12.5e6, 12.5e6},
      consensus, directory.authority_key(), rng_.fork());
  net.set_latency(stem_proxy_->node(), router_.node(), util::Duration::micros(50));
  router_.bind_local_app(config_.port,
                         [this](tor::Stream& stream) { return accept_stream(stream); });
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

bool BentoServer::accept_stream(tor::Stream& stream) {
  tor::Stream* ptr = &stream;
  // No function may hold a message larger than its memory limit, so no
  // client needs a longer frame.
  conns_.try_emplace(ptr,
                     ClientConn{StreamFramer(config_.policy.max_per_function.memory_bytes)});
  stream.set_on_data([this, ptr](util::ByteView data) {
    auto it = conns_.find(ptr);
    if (it == conns_.end()) return;
    it->second.framer.append(data);
    // One message at a time: it views the framer, and handling it may drop
    // this connection (and the framer with it), so look the connection up
    // again before parsing the next.
    while ((it = conns_.find(ptr)) != conns_.end()) {
      std::optional<Message> msg;
      try {
        msg = it->second.framer.next();
      } catch (const util::ParseError& e) {
        // Anonymous client bytes are untrusted: a malformed frame costs the
        // sender its stream, never the box.
        reject_stream(ptr, e.what());
        return;
      }
      if (!msg.has_value()) return;
      handle_message(ptr, *msg);
    }
  });
  stream.set_on_end([this, ptr] {
    conns_.erase(ptr);
    for (auto& [id, container] : containers_) container->on_stream_closed(ptr);
  });
  return true;
}

void BentoServer::reject_stream(tor::Stream* stream, const std::string& why) {
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

void BentoServer::send_to_stream(tor::Stream* stream, const Message& msg) {
  if (stream == nullptr) return;
  stream->send(StreamFramer::frame(msg));
}

void BentoServer::reply_error(tor::Stream* stream, const std::string& text) {
  Message err;
  err.type = MsgType::Error;
  err.text = text;
  send_to_stream(stream, err);
}

void BentoServer::handle_message(tor::Stream* stream, const Message& msg) {
  // Child of the client's request span (inert when untraced): everything
  // the box does for this message — attestation, verification, dispatch —
  // nests under one server.handle span.
  obs::SpanScope span(obs::Stage::ServerHandle,
                      static_cast<std::uint32_t>(msg.container_id));
  switch (msg.type) {
    case MsgType::GetPolicy: {
      const util::Bytes policy = config_.policy.serialize();
      Message reply;
      reply.type = MsgType::PolicyReply;
      reply.blob = policy;
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

void BentoServer::handle_spawn(tor::Stream* stream, const Message& msg) {
  const std::string image(msg.text);
  if (!config_.policy.offers_image(image)) {
    reply_error(stream, "image not offered: " + image);
    return;
  }
  if (image == kImagePythonOpSgx && !config_.sgx_available) {
    reply_error(stream, "no SGX on this box");
    return;
  }
  if (containers_.size() >= kMaxContainers) {
    reply_error(stream, "container limit reached");
    return;
  }

  const std::uint64_t id = next_container_id_++;
  std::unique_ptr<Container> container;
  try {
    container = std::make_unique<Container>(*this, id, image, rng_.fork());
  } catch (const tee::EpcExhausted& e) {
    reply_error(stream, std::string("EPC exhausted: ") + e.what());
    return;
  }

  Message reply;
  reply.type = MsgType::SpawnReply;
  reply.container_id = id;
  util::Bytes report_bytes;
  util::Bytes accept_bytes;

  if (image == kImagePythonOpSgx) {
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
    report_bytes = report->serialize();
    accept_bytes = accept.to_bytes();
    reply.blob = report_bytes;
    reply.blob2 = accept_bytes;
  }

  containers_[id] = std::move(container);
  ++counters_.spawns;
  send_to_stream(stream, reply);
}

void BentoServer::handle_upload(tor::Stream* stream, const Message& msg) {
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

  util::ByteView body_bytes = msg.blob;
  std::optional<util::Bytes> opened;
  if (container.channel().has_value()) {
    opened = container.channel()->open(body_bytes);
    if (!opened.has_value()) {
      reply_error(stream, "upload failed channel authentication");
      return;
    }
    body_bytes = *opened;
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
    const VerifyReport report = verify_upload(*program, manifest);
    for (const auto& d : report.analysis.diagnostics) {
      util::log_info(kComponent, "verify[", manifest.name, "]: ", d.to_string());
    }
    if (!report.decision.admitted) {
      if (config_.verify == VerifyMode::Enforce) {
        ++counters_.rejected_static;
        server_metrics().policy_denials.inc();
        obs::trace(obs::Ev::PolicyDeny, static_cast<std::uint32_t>(msg.container_id),
                   1, /*ok=*/false);
        reply_error(stream,
                    "upload rejected by static verifier: " + report.decision.reason);
        remove_container(msg.container_id);
        return;
      }
      util::log_info(kComponent, "verify[", manifest.name,
                     "] would reject (mode=warn): ", report.decision.reason);
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
  util::Bytes reply_bytes = reply_body.serialize();
  if (container.channel().has_value()) {
    reply_bytes = container.channel()->seal(reply_bytes);
  }
  Message reply;
  reply.type = MsgType::UploadReply;
  reply.container_id = msg.container_id;
  reply.blob = reply_bytes;
  send_to_stream(stream, reply);
}

void BentoServer::handle_invoke(tor::Stream* stream, const Message& msg) {
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

void BentoServer::handle_shutdown(tor::Stream* stream, const Message& msg) {
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
  // Same deferral as remove_container: a chaos handler may reach this from
  // inside a container's own call stack.
  auto doomed = std::make_shared<std::map<std::uint64_t, std::unique_ptr<Container>>>(
      std::move(containers_));
  containers_.clear();
  sim_.after(util::Duration::micros(0), [doomed] {});
  // Durable media take the crash too: unsynced bytes vanish, the active
  // segment keeps a deterministic torn prefix. The volumes themselves
  // survive inside volumes_; their claims left with containers_.
  volumes_.crash();
}

void BentoServer::remove_container(std::uint64_t id) {
  auto it = containers_.find(id);
  if (it == containers_.end()) return;
  // Deferred: removal is frequently reached from inside the container's own
  // call stack (kill during install/invoke). Leaving the table releases
  // its volume claim at once, so a respawn within this event cascade mounts
  // the same name.
  std::shared_ptr<Container> doomed(std::move(it->second));
  containers_.erase(it);
  sim_.after(util::Duration::micros(0), [doomed] {});
}

}  // namespace bento::core
