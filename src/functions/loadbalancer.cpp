#include "functions/loadbalancer.hpp"

#include <sstream>

#include "core/stemfw.hpp"
#include "obs/trace.hpp"
#include "util/serialize.hpp"

namespace bento::functions {

namespace sb = sandbox;

util::Bytes LoadBalancerConfig::serialize() const {
  util::Writer w;
  w.u32(static_cast<std::uint32_t>(intro_points));
  w.u32(static_cast<std::uint32_t>(max_clients_per_replica));
  w.u64(content_bytes);
  w.u32(static_cast<std::uint32_t>(replica_boxes.size()));
  for (const auto& box : replica_boxes) w.str(box);
  w.u64(static_cast<std::uint64_t>(health_check_seconds * 1000));
  w.u32(static_cast<std::uint32_t>(health_max_misses));
  return std::move(w).take();
}

LoadBalancerConfig LoadBalancerConfig::deserialize(util::ByteView data) {
  util::Reader r(data);
  LoadBalancerConfig c;
  c.intro_points = static_cast<int>(r.u32());
  c.max_clients_per_replica = static_cast<int>(r.u32());
  c.content_bytes = r.u64();
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) c.replica_boxes.push_back(r.str());
  c.health_check_seconds = static_cast<double>(r.u64()) / 1000.0;
  c.health_max_misses = static_cast<int>(r.u32());
  r.expect_done();
  return c;
}

util::Bytes ReplicaConfig::serialize() const {
  util::Writer w;
  w.blob(signing_key);
  w.blob(ntor_key);
  w.u64(content_bytes);
  return std::move(w).take();
}

ReplicaConfig ReplicaConfig::deserialize(util::ByteView data) {
  util::Reader r(data);
  ReplicaConfig c;
  c.signing_key = r.blob();
  c.ntor_key = r.blob();
  c.content_bytes = r.u64();
  r.expect_done();
  return c;
}

namespace {
/// Serve `content_bytes` of deterministic data to any stream request.
void attach_content_acceptor(tor::HiddenServiceHost& host, std::uint64_t content_bytes) {
  host.set_stream_acceptor([content_bytes](tor::Stream& stream) {
    stream.set_on_data([&stream, content_bytes](util::ByteView) {
      constexpr std::size_t kChunk = 64 * 1024;
      util::Bytes chunk(kChunk);
      for (std::size_t i = 0; i < kChunk; ++i) {
        chunk[i] = static_cast<std::uint8_t>(i * 31 + 7);
      }
      std::uint64_t left = content_bytes;
      while (left > 0) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(left, kChunk));
        stream.send(util::Bytes(chunk.begin(), chunk.begin() + static_cast<std::ptrdiff_t>(n)));
        left -= n;
      }
      stream.end();
    });
    return true;
  });
}
}  // namespace

void LoadBalancerFunction::on_install(core::HostApi& api, util::ByteView args) {
  config_ = LoadBalancerConfig::deserialize(args);
  host_ = &api.stem().create_hidden_service(config_.intro_points);
  attach_content_acceptor(*host_, config_.content_bytes);

  // Local instance is replica[0].
  Replica local;
  local.box = api.box_fingerprint();
  local.remote = false;
  replicas_.push_back(local);
  host_->set_on_load_change([this](std::size_t load) {
    replicas_[0].load = static_cast<int>(load);
    replicas_[0].assigned = std::min(replicas_[0].assigned, replicas_[0].load);
  });

  // Intercept every introduction and route it (paper Figure 4).
  host_->set_intro_interceptor([this, &api](util::ByteView blob) {
    ++introductions_;
    route_introduction(api, blob);
    return false;  // we own the routing decision
  });

  host_->start([&api](bool ok) {
    if (!ok) api.log("loadbalancer: failed to establish introduction points");
  });

  if (config_.health_check_seconds > 0) {
    api.after(util::Duration::seconds(config_.health_check_seconds),
              [this, &api] { health_tick(api); });
  }
}

LoadBalancerFunction::Replica* LoadBalancerFunction::least_loaded() {
  Replica* best = nullptr;
  for (auto& replica : replicas_) {
    if (replica.remote && replica.invocation_token.empty()) continue;  // pending
    if (best == nullptr || effective_load(replica) < effective_load(*best)) {
      best = &replica;
    }
  }
  return best;
}

void LoadBalancerFunction::assign_to(core::HostApi& api, Replica& target,
                                     util::ByteView blob) {
  target.assigned++;
  if (!target.remote) {
    host_->handle_introduction(blob);
    return;
  }
  util::Bytes payload = util::to_bytes("INTRO:");
  util::append(payload, blob);
  const std::string box = target.box;
  api.invoke_remote(box, target.invocation_token, payload,
                    [this, box](util::Bytes output) {
                      on_load_report(box, output, /*pong=*/false);
                    });
}

void LoadBalancerFunction::on_load_report(const std::string& box,
                                          const util::Bytes& output, bool pong) {
  // Replicas report "load:N" on every change and in answer to a PING.
  const std::string text = util::to_string(output);
  if (text.rfind("load:", 0) != 0) return;
  const int load = std::stoi(text.substr(5));
  for (Replica& r : replicas_) {
    if (r.box != box) continue;
    if (pong) {
      r.awaiting_pong = false;
      r.missed = 0;
    }
    r.load = load;
    r.assigned = std::min(r.assigned, r.load);
  }
}

void LoadBalancerFunction::route_introduction(core::HostApi& api,
                                              util::ByteView blob) {
  Replica* target = least_loaded();
  if (target != nullptr &&
      effective_load(*target) < config_.max_clients_per_replica) {
    assign_to(api, *target, blob);
    return;
  }
  // High watermark: everyone is at capacity. Paper §8.2: "chooses from a
  // set of replicas (or spins up a new replica)". Queue the introduction
  // for a fresh replica when one can still be created; fall back to the
  // least-loaded instance otherwise.
  const std::size_t provisioned_slots =
      static_cast<std::size_t>(pending_deploys_) *
      static_cast<std::size_t>(config_.max_clients_per_replica);
  const bool can_scale = next_candidate_ < config_.replica_boxes.size();
  if (can_scale && pending_intros_.size() >= provisioned_slots) {
    scale_up(api);
  }
  if (pending_deploys_ > 0) {
    pending_intros_.emplace_back(blob.begin(), blob.end());
    return;
  }
  if (target != nullptr) assign_to(api, *target, blob);
}

void LoadBalancerFunction::drain_queue(core::HostApi& api, Replica* fresh) {
  int granted = 0;
  while (!pending_intros_.empty()) {
    if (fresh != nullptr && granted < config_.max_clients_per_replica) {
      util::Bytes blob = std::move(pending_intros_.front());
      pending_intros_.erase(pending_intros_.begin());
      assign_to(api, *fresh, blob);
      ++granted;
      continue;
    }
    if (pending_deploys_ > 0) return;  // another deploy will pick these up
    Replica* target = least_loaded();
    if (target == nullptr) return;
    util::Bytes blob = std::move(pending_intros_.front());
    pending_intros_.erase(pending_intros_.begin());
    assign_to(api, *target, blob);
  }
}

void LoadBalancerFunction::scale_up(core::HostApi& api, bool failover_respawn) {
  if (next_candidate_ >= config_.replica_boxes.size()) {
    if (failover_respawn) {
      api.log("loadbalancer: no spare box left to re-spawn a failed replica");
    }
    return;
  }
  const std::string box = config_.replica_boxes[next_candidate_++];
  ++pending_deploys_;

  ReplicaConfig replica_config;
  replica_config.signing_key = host_->identity().signing_key.to_bytes();
  replica_config.ntor_key = host_->identity().ntor_key.to_bytes();
  replica_config.content_bytes = config_.content_bytes;

  core::HostApi::DeploySpec spec;
  spec.box_fingerprint = box;
  spec.manifest = hs_replica_manifest();
  spec.native = "hs-replica";
  spec.args = replica_config.serialize();

  api.log("loadbalancer: scaling up onto " + box);
  api.deploy(spec, [this, box, &api, failover_respawn](bool ok, util::Bytes invocation,
                                                       util::Bytes /*shutdown*/) {
    --pending_deploys_;
    if (!ok) {
      api.log("loadbalancer: replica deploy failed on " + box);
      drain_queue(api, nullptr);
      return;
    }
    Replica replica;
    replica.box = box;
    replica.remote = true;
    replica.invocation_token = std::move(invocation);
    replicas_.push_back(std::move(replica));
    peak_replicas_ = std::max(peak_replicas_, static_cast<int>(replicas_.size()));
    if (failover_respawn) {
      // Recovery complete: the clone (same identity keys, same image) is
      // serving where the dead replica was.
      obs::trace(obs::Ev::LbFailover,
                 static_cast<std::uint32_t>(replicas_.size() - 1), 0, /*ok=*/true);
      api.log("loadbalancer: failover replica live on " + box);
    }
    drain_queue(api, &replicas_.back());
  });
}

void LoadBalancerFunction::health_tick(core::HostApi& api) {
  for (std::size_t i = 0; i < replicas_.size();) {
    Replica& replica = replicas_[i];
    if (!replica.remote || replica.invocation_token.empty()) {
      ++i;
      continue;
    }
    if (replica.awaiting_pong) {
      ++replica.missed;
      if (replica.missed >= config_.health_max_misses) {
        ++failovers_;
        api.log("loadbalancer: replica on " + replica.box + " missed " +
                std::to_string(replica.missed) +
                " health checks; failing over");
        obs::trace(obs::Ev::LbFailover, static_cast<std::uint32_t>(i),
                   static_cast<std::uint64_t>(replica.missed), /*ok=*/false);
        replicas_.erase(replicas_.begin() + i);
        // Re-spawn a clone onto the next spare box from the stored identity
        // and image — clients keep resolving the same onion address.
        scale_up(api, /*failover_respawn=*/true);
        continue;
      }
    }
    replica.awaiting_pong = true;
    const std::string box = replica.box;
    api.invoke_remote(box, replica.invocation_token, util::to_bytes("PING"),
                      [this, box](util::Bytes output) {
                        on_load_report(box, output, /*pong=*/true);
                      });
    ++i;
  }
  api.after(util::Duration::seconds(config_.health_check_seconds),
            [this, &api] { health_tick(api); });
}

std::string LoadBalancerFunction::status() const {
  std::ostringstream out;
  out << "replicas:" << replicas_.size() << " peak:" << peak_replicas_
      << " introductions:" << introductions_;
  if (failovers_ > 0) out << " failovers:" << failovers_;
  out << " loads:";
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (i > 0) out << ",";
    out << effective_load(replicas_[i]);
  }
  return out.str();
}

void LoadBalancerFunction::on_message(core::HostApi& api, util::Bytes payload) {
  const std::string text = util::to_string(payload);
  if (text == "status") {
    api.send(util::to_bytes(status()));
    return;
  }
  if (text == "onion") {
    api.send(util::to_bytes(host_ != nullptr ? host_->onion_id() : ""));
    return;
  }
  api.send(util::to_bytes("ERR bad command"));
}

void LoadBalancerFunction::on_shutdown(core::HostApi& api) {
  api.log("loadbalancer: shutting down (" + status() + ")");
}

void HsReplicaFunction::on_install(core::HostApi& api, util::ByteView args) {
  config_ = ReplicaConfig::deserialize(args);
  tor::HiddenServiceHost::Identity identity{
      crypto::SigningKey::from_bytes(config_.signing_key),
      crypto::DhKeyPair::from_bytes(config_.ntor_key)};
  // A replica never publishes or establishes introduction points — it only
  // answers forwarded introductions for the cloned identity.
  host_ = &api.stem().create_hidden_service(identity, 1);
  attach_content_acceptor(*host_, config_.content_bytes);
  host_->set_on_load_change([this, &api](std::size_t load) {
    load_ = load;
    api.send(util::to_bytes("load:" + std::to_string(load)));
  });
}

void HsReplicaFunction::on_message(core::HostApi& api, util::Bytes payload) {
  const std::string text = util::to_string(payload);
  if (text.rfind("INTRO:", 0) == 0) {
    host_->handle_introduction(
        util::ByteView(reinterpret_cast<const std::uint8_t*>(text.data()) + 6,
                       text.size() - 6));
    return;
  }
  if (text == "PING") {
    // Health-check probe: answer with the current load so the front end
    // both confirms liveness and refreshes its load table.
    api.send(util::to_bytes("load:" + std::to_string(load_)));
  }
}

void register_loadbalancer(core::NativeRegistry& registry) {
  registry.add("loadbalancer", [] { return std::make_unique<LoadBalancerFunction>(); });
  registry.add("hs-replica", [] { return std::make_unique<HsReplicaFunction>(); });
}

core::FunctionManifest loadbalancer_manifest() {
  core::FunctionManifest m;
  m.name = "loadbalancer";
  m.required = {sb::Syscall::TorCircuit, sb::Syscall::TorHs, sb::Syscall::TorDirectory,
                sb::Syscall::SpawnFunction, sb::Syscall::Clock, sb::Syscall::Random};
  m.image = core::kImagePythonOpSgx;  // holds the service's private keys (§8.2)
  m.resources.memory_bytes = 32 << 20;
  m.resources.cpu_instructions = 1'000'000'000;
  m.resources.disk_bytes = 4 << 20;
  m.resources.network_bytes = 2ull << 30;
  return m;
}

core::FunctionManifest hs_replica_manifest() {
  core::FunctionManifest m = loadbalancer_manifest();
  m.name = "hs-replica";
  m.required = {sb::Syscall::TorCircuit, sb::Syscall::TorHs, sb::Syscall::Clock,
                sb::Syscall::Random};
  return m;
}

}  // namespace bento::functions
