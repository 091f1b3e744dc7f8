#include "tor/hs.hpp"

#include <algorithm>
#include <stdexcept>

#include "crypto/hmac.hpp"
#include "crypto/poly1305.hpp"
#include "tor/ntor.hpp"
#include "util/log.hpp"
#include "util/serialize.hpp"

namespace bento::tor {

namespace {
constexpr char kComponent[] = "tor.hs";
constexpr std::string_view kIntroLabel = "bento-hs-intro";

/// The blob's one key: each blob has its own one-time DH key, so nonce 0
/// never repeats under it.
crypto::ChaChaKey intro_key(util::ByteView shared) {
  const util::Bytes okm = crypto::hkdf(shared, {}, kIntroLabel, 32);
  crypto::ChaChaKey key{};
  std::copy(okm.begin(), okm.end(), key.begin());
  return key;
}
}  // namespace

util::Bytes make_intro_blob(crypto::Gp service_ntor_pub,
                            const std::string& rend_fingerprint,
                            util::ByteView cookie, util::ByteView ntor_skin,
                            util::Rng& rng) {
  const crypto::DhKeyPair tmp = crypto::DhKeyPair::generate(rng);
  const util::Bytes shared = crypto::dh_shared(tmp, service_ntor_pub);
  util::Writer pt;
  pt.str(rend_fingerprint);
  pt.blob(cookie);
  pt.blob(ntor_skin);
  util::Bytes out = crypto::gp_to_bytes(tmp.public_value);
  crypto::chapoly_seal_append(out, intro_key(shared), crypto::nonce_from_counter(0), {},
                              pt.data());
  return out;
}

bool open_intro_blob(const crypto::DhKeyPair& service_ntor_key, util::ByteView blob,
                     std::string* rend_fingerprint, util::Bytes* cookie,
                     util::Bytes* ntor_skin) {
  if (blob.size() < static_cast<std::size_t>(crypto::kGpBytes) + crypto::kChapolyTagLen) {
    return false;
  }
  try {
    const crypto::Gp tmp_pub = crypto::gp_from_bytes(blob.first(crypto::kGpBytes));
    const util::Bytes shared = crypto::dh_shared(service_ntor_key, tmp_pub);
    auto opened = crypto::chapoly_open(intro_key(shared), crypto::nonce_from_counter(0),
                                       {}, blob.subspan(crypto::kGpBytes));
    if (!opened.has_value()) return false;
    util::Reader r(*opened);
    *rend_fingerprint = r.str();
    *cookie = r.blob();
    *ntor_skin = r.blob();
    r.expect_done();
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

HiddenServiceHost::HiddenServiceHost(OnionProxy& proxy, DirectoryAuthority& directory,
                                     int intro_count)
    : HiddenServiceHost(proxy, directory,
                        Identity{crypto::SigningKey::generate(proxy.rng()),
                                 crypto::DhKeyPair::generate(proxy.rng())},
                        intro_count) {}

HiddenServiceHost::HiddenServiceHost(OnionProxy& proxy, DirectoryAuthority& directory,
                                     const Identity& identity, int intro_count)
    : proxy_(proxy),
      directory_(directory),
      identity_(identity),
      onion_id_(crypto::key_fingerprint(identity.signing_key.public_key())),
      intro_count_(intro_count) {
  if (intro_count_ < 1) throw std::invalid_argument("HiddenServiceHost: intro_count");
}

HiddenServiceHost::~HiddenServiceHost() {
  alive_.reset();  // every registered circuit callback is now a no-op
  auto intro = std::move(intro_circuits_);
  auto rend = std::move(rend_circuits_);
  for (CircuitOrigin* circ : intro) {
    if (circ == nullptr) continue;
    circ->destroy();
    proxy_.forget(circ);
  }
  for (CircuitOrigin* circ : rend) {
    if (circ == nullptr) continue;
    circ->destroy();
    proxy_.forget(circ);
  }
}

void HiddenServiceHost::publish_descriptor() {
  HsDescriptor desc;
  desc.onion_id = onion_id_;
  desc.service_pub = identity_.signing_key.public_key();
  desc.service_ntor_pub = identity_.ntor_key.public_value;
  desc.intro_points = intro_fingerprints_;
  desc.sign(identity_.signing_key);
  directory_.publish_hs(desc);
}

void HiddenServiceHost::start(std::function<void(bool)> ready) {
  // Choose distinct introduction points, bandwidth-weighted.
  PathSelector selector(proxy_.consensus());
  for (int i = 0; i < intro_count_; ++i) {
    const RelayDescriptor* pick = selector.pick_weighted(
        [&](const RelayDescriptor& r) {
          if (!r.flags.fast) return false;
          for (const auto& fp : intro_fingerprints_) {
            if (fp == r.fingerprint()) return false;
          }
          return true;
        },
        proxy_.rng());
    if (pick == nullptr) {
      ready(false);
      return;
    }
    intro_fingerprints_.push_back(pick->fingerprint());
  }
  intro_circuits_.assign(intro_fingerprints_.size(), nullptr);

  auto remaining = std::make_shared<int>(intro_count_);
  auto failed = std::make_shared<bool>(false);
  auto ready_shared = std::make_shared<std::function<void(bool)>>(std::move(ready));
  for (std::size_t i = 0; i < intro_fingerprints_.size(); ++i) {
    establish_intro(i, [this, remaining, failed, ready_shared](bool ok) {
      if (!ok) *failed = true;
      if (--*remaining == 0) {
        if (!*failed) publish_descriptor();
        (*ready_shared)(!*failed);
      }
    });
  }
}

void HiddenServiceHost::establish_intro(std::size_t index,
                                        std::function<void(bool)> done) {
  PathConstraints constraints;
  constraints.last_hop = intro_fingerprints_[index];
  std::weak_ptr<char> alive = alive_;
  proxy_.build_circuit(constraints, [this, alive, index, done = std::move(done)](
                                        CircuitOrigin* circ) {
    if (alive.expired()) {
      if (circ != nullptr) circ->destroy();
      return;
    }
    if (circ == nullptr) {
      done(false);
      return;
    }
    intro_circuits_[index] = circ;
    circ->set_on_destroy([this, alive, index] {
      if (alive.expired()) return;
      intro_circuits_[index] = nullptr;
    });
    auto done_shared = std::make_shared<std::function<void(bool)>>(std::move(done));
    auto acked = std::make_shared<bool>(false);
    circ->set_relay_handler([this, alive, done_shared, acked](const RelayCell& rc, int) {
      if (alive.expired()) return;
      if (rc.relay_cmd == RelayCommand::IntroEstablished) {
        if (!*acked) {
          *acked = true;
          (*done_shared)(true);
        }
        return;
      }
      if (rc.relay_cmd == RelayCommand::Introduce2) {
        on_introduce2(rc);
        return;
      }
      util::log_warn(kComponent, "intro circuit: unexpected ", to_string(rc.relay_cmd));
    });
    const util::Bytes auth = crypto::gp_to_bytes(identity_.signing_key.public_key());
    RelayCell establish;
    establish.relay_cmd = RelayCommand::EstablishIntro;
    establish.data = auth;
    circ->send_relay(establish);
  });
}

void HiddenServiceHost::on_introduce2(const RelayCell& rc) {
  if (intro_interceptor_ && !intro_interceptor_(rc.data)) {
    return;  // interceptor took ownership (e.g. LoadBalancer redirect)
  }
  handle_introduction(rc.data);
}

void HiddenServiceHost::handle_introduction(util::ByteView blob) {
  std::string rend_fp;
  util::Bytes cookie;
  util::Bytes skin;
  if (!open_intro_blob(identity_.ntor_key, blob, &rend_fp, &cookie, &skin)) {
    util::log_warn(kComponent, "undecryptable INTRODUCE2");
    return;
  }
  NtorServerReply reply;
  try {
    reply = ntor_server_respond(identity_.ntor_key, identity_.signing_key.public_key(),
                                skin, proxy_.rng());
  } catch (const std::invalid_argument&) {
    return;
  }

  PathConstraints constraints;
  constraints.last_hop = rend_fp;
  std::weak_ptr<char> alive = alive_;
  proxy_.build_circuit(constraints, [this, alive, cookie, reply](CircuitOrigin* circ) {
    if (alive.expired()) {
      if (circ != nullptr) circ->destroy();
      return;
    }
    if (circ == nullptr) return;
    rend_circuits_.push_back(circ);
    circ->set_stream_acceptor(acceptor_);
    util::Writer w;
    w.blob(cookie);
    w.blob(reply.created_payload);
    const util::Bytes body = std::move(w).take();
    RelayCell rend1;
    rend1.relay_cmd = RelayCommand::Rendezvous1;
    rend1.data = body;
    circ->send_relay(rend1);
    // All subsequent cells on this circuit belong to the e2e layer.
    circ->enable_virtual_relay(reply.keys);
    ++active_rendezvous_;
    if (on_load_change_) on_load_change_(active_rendezvous_);
    circ->set_on_destroy([this, alive, circ] {
      if (alive.expired()) return;
      std::erase(rend_circuits_, circ);
      if (active_rendezvous_ > 0) --active_rendezvous_;
      if (on_load_change_) on_load_change_(active_rendezvous_);
    });
  });
}

void HsClient::connect(const std::string& onion_id,
                       std::function<void(CircuitOrigin*)> done) {
  auto desc = directory_.fetch_hs(onion_id);
  if (!desc.has_value() || !desc->verify() || desc->intro_points.empty()) {
    done(nullptr);
    return;
  }

  struct Context {
    HsDescriptor desc;
    util::Bytes cookie;
    NtorClientState ntor;
    util::Bytes skin;
    CircuitOrigin* rend_circ = nullptr;
    CircuitOrigin* intro_circ = nullptr;
    std::function<void(CircuitOrigin*)> done;
    bool finished = false;
  };
  auto ctx = std::make_shared<Context>();
  ctx->desc = *desc;
  ctx->cookie = proxy_.rng().bytes(20);
  ctx->skin = ntor_client_create(ctx->ntor, desc->service_ntor_pub,
                                 desc->service_pub, proxy_.rng());
  ctx->done = std::move(done);

  // Step 1: establish the rendezvous point.
  PathSelector selector(proxy_.consensus());
  const RelayDescriptor* rend = selector.pick_weighted(
      [](const RelayDescriptor& r) { return r.flags.fast; }, proxy_.rng());
  if (rend == nullptr) {
    ctx->done(nullptr);
    return;
  }
  const std::string rend_fp = rend->fingerprint();

  PathConstraints rend_constraints;
  rend_constraints.last_hop = rend_fp;
  proxy_.build_circuit(rend_constraints, [this, ctx, rend_fp](CircuitOrigin* circ) {
    if (circ == nullptr) {
      ctx->done(nullptr);
      return;
    }
    ctx->rend_circ = circ;
    circ->set_relay_handler([this, ctx, rend_fp](const RelayCell& rc, int) {
      if (rc.relay_cmd == RelayCommand::RendezvousEstablished) {
        // Step 2: introduce through a random introduction point.
        const auto& ips = ctx->desc.intro_points;
        const std::string intro_fp =
            ips[proxy_.rng().uniform(0, ips.size() - 1)];
        PathConstraints intro_constraints;
        intro_constraints.last_hop = intro_fp;
        proxy_.build_circuit(intro_constraints, [this, ctx,
                                                 rend_fp](CircuitOrigin* icirc) {
          if (icirc == nullptr) {
            if (!ctx->finished) {
              ctx->finished = true;
              ctx->done(nullptr);
            }
            return;
          }
          ctx->intro_circ = icirc;
          util::Writer w;
          w.blob(crypto::gp_to_bytes(ctx->desc.service_pub));
          w.blob(make_intro_blob(ctx->desc.service_ntor_pub, rend_fp, ctx->cookie,
                                 ctx->skin, proxy_.rng()));
          const util::Bytes body = std::move(w).take();
          RelayCell intro1;
          intro1.relay_cmd = RelayCommand::Introduce1;
          intro1.data = body;
          icirc->send_relay(intro1);
        });
        return;
      }
      if (rc.relay_cmd == RelayCommand::Rendezvous2) {
        if (ctx->finished) return;
        auto keys = ntor_client_finish(ctx->ntor, rc.data);
        if (!keys.has_value()) {
          ctx->finished = true;
          ctx->done(nullptr);
          return;
        }
        ctx->rend_circ->add_hop_keys(*keys);
        ctx->finished = true;
        // The introduction circuit has served its purpose.
        if (ctx->intro_circ != nullptr) {
          ctx->intro_circ->destroy();
          proxy_.forget(ctx->intro_circ);
          ctx->intro_circ = nullptr;
        }
        ctx->done(ctx->rend_circ);
        return;
      }
      util::log_warn(kComponent, "rend circuit: unexpected ", to_string(rc.relay_cmd));
    });
    RelayCell establish;
    establish.relay_cmd = RelayCommand::EstablishRendezvous;
    establish.data = ctx->cookie;
    circ->send_relay(establish);
  });
}

}  // namespace bento::tor
