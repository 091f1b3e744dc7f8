#include "tee/conclave.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "crypto/hmac.hpp"
#include "crypto/poly1305.hpp"
#include "crypto/sha256.hpp"
#include "util/serialize.hpp"

namespace bento::tee {

namespace {
std::unique_ptr<store::Sealer> ephemeral_sealer(util::Rng& rng) {
  // 64 bytes drawn, the first 32 keyed: the draw size fixes where the
  // container's later draws (its tokens, os.urandom) fall in its seeded Rng
  // stream, which seeded traces pin.
  const util::Bytes material = rng.bytes(64);
  crypto::ChaChaKey key{};
  std::copy_n(material.begin(), key.size(), key.begin());
  return store::make_chapoly_sealer(key);
}
}  // namespace

FsProtect::FsProtect(util::Rng& rng) : sandbox::MemoryBackend(ephemeral_sealer(rng)) {}

// ---- SecureChannel ----

util::Bytes SecureChannel::Hello::to_bytes() const {
  return crypto::gp_to_bytes(dh_public);
}

SecureChannel::Hello SecureChannel::Hello::from_bytes(util::ByteView b) {
  return Hello{crypto::gp_from_bytes(b)};
}

util::Bytes SecureChannel::Accept::to_bytes() const {
  util::Writer w;
  w.raw(crypto::gp_to_bytes(dh_public));
  w.blob(quote.serialize());
  return std::move(w).take();
}

SecureChannel::Accept SecureChannel::Accept::from_bytes(util::ByteView b) {
  util::Reader r(b);
  Accept a;
  a.dh_public = crypto::gp_from_bytes(r.raw(crypto::kGpBytes));
  a.quote = Quote::deserialize(r.blob());
  r.expect_done();
  return a;
}

namespace {
util::Bytes transcript_hash(crypto::Gp client_pub, crypto::Gp server_pub) {
  util::Writer w;
  w.raw(crypto::gp_to_bytes(client_pub));
  w.raw(crypto::gp_to_bytes(server_pub));
  return crypto::sha256_bytes(w.data());
}

std::pair<crypto::ChaChaKey, crypto::ChaChaKey> derive_keys(
    util::ByteView shared, util::ByteView transcript) {
  const util::Bytes material =
      crypto::hkdf(shared, transcript, "bento-secure-channel", 64);
  crypto::ChaChaKey client_key{}, server_key{};
  std::memcpy(client_key.data(), material.data(), 32);
  std::memcpy(server_key.data(), material.data() + 32, 32);
  return {client_key, server_key};
}
}  // namespace

SecureChannel::SecureChannel(crypto::ChaChaKey send_key, crypto::ChaChaKey recv_key)
    : send_key_(send_key), recv_key_(recv_key) {}

SecureChannel::Hello SecureChannel::client_hello(crypto::DhKeyPair& ephemeral,
                                                 util::Rng& rng) {
  ephemeral = crypto::DhKeyPair::generate(rng);
  return Hello{ephemeral.public_value};
}

SecureChannel SecureChannel::server_accept(const Hello& hello, const Enclave& enclave,
                                           util::Rng& rng, Accept* out) {
  const crypto::DhKeyPair eph = crypto::DhKeyPair::generate(rng);
  const util::Bytes shared = crypto::dh_shared(eph, hello.dh_public);
  const util::Bytes transcript = transcript_hash(hello.dh_public, eph.public_value);
  auto [client_key, server_key] = derive_keys(shared, transcript);

  out->dh_public = eph.public_value;
  out->quote = generate_quote(enclave, transcript);
  // Server sends on server_key, receives on client_key.
  return SecureChannel(server_key, client_key);
}

std::optional<SecureChannel> SecureChannel::client_finish(
    const crypto::DhKeyPair& ephemeral, const Accept& accept,
    const Measurement& expected_measurement) {
  const util::Bytes transcript =
      transcript_hash(ephemeral.public_value, accept.dh_public);
  if (accept.quote.report_data != transcript) return std::nullopt;
  if (accept.quote.measurement != expected_measurement) return std::nullopt;
  util::Bytes shared;
  try {
    shared = crypto::dh_shared(ephemeral, accept.dh_public);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
  auto [client_key, server_key] = derive_keys(shared, transcript);
  return SecureChannel(client_key, server_key);
}

util::Bytes SecureChannel::seal(util::ByteView plaintext) {
  return crypto::chapoly_seal(send_key_, crypto::nonce_from_counter(++send_seq_), {},
                              plaintext);
}

std::optional<util::Bytes> SecureChannel::open(util::ByteView sealed) {
  auto out = crypto::chapoly_open(recv_key_,
                                  crypto::nonce_from_counter(recv_seq_ + 1), {},
                                  sealed);
  if (out.has_value()) ++recv_seq_;
  return out;
}

// ---- Conclave ----

std::uint64_t Conclave::next_id() {
  static std::uint64_t counter = 0;
  return ++counter;
}

Conclave::Conclave(Platform& platform, EpcManager& epc, util::ByteView runtime_image,
                   const std::string& name)
    : id_(next_id()), epc_(epc), runtime_(platform, runtime_image, name) {
  epc_.allocate(id_, kBaselineOverheadBytes);
  runtime_.set_memory_bytes(kBaselineOverheadBytes);
}

Conclave::~Conclave() { epc_.free(id_); }

void Conclave::set_memory_bytes(std::size_t bytes) {
  const std::size_t total = bytes + kBaselineOverheadBytes;
  epc_.allocate(id_, total);
  runtime_.set_memory_bytes(total);
}

std::unique_ptr<store::Sealer> make_store_sealer(const Platform& platform,
                                                 const Measurement& measurement,
                                                 const std::string& store_name) {
  // A per-store label, so each named store gets an independent key bound to
  // exactly the (platform, image) pair attestation vouches for.
  return store::make_chapoly_sealer(
      derive_sealing_key(platform, measurement, "bento-store-seal:" + store_name));
}

}  // namespace bento::tee
