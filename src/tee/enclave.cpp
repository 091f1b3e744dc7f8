#include "tee/enclave.hpp"

#include <algorithm>

#include "crypto/hmac.hpp"
#include "crypto/poly1305.hpp"
#include "util/serialize.hpp"

namespace bento::tee {

namespace {
constexpr std::string_view kSealLabel = "sgx-seal-key";
}  // namespace

Measurement measure(util::ByteView code_image) { return crypto::sha256(code_image); }

std::string measurement_hex(const Measurement& m) {
  return util::to_hex(util::ByteView(m.data(), m.size()));
}

Platform::Platform(std::uint64_t platform_id, std::uint32_t tcb_version,
                   util::Rng& rng)
    : id_(platform_id),
      tcb_(tcb_version),
      attestation_key_(rng.bytes(32)),
      sealing_secret_(rng.bytes(32)) {}

void Platform::upgrade_tcb(std::uint32_t new_version) {
  if (new_version > tcb_) tcb_ = new_version;
}

crypto::ChaChaKey derive_sealing_key(const Platform& platform,
                                     const Measurement& measurement,
                                     std::string_view label) {
  const util::Bytes okm =
      crypto::hkdf(platform.sealing_secret(),
                   util::ByteView(measurement.data(), measurement.size()), label, 32);
  crypto::ChaChaKey key{};
  std::copy(okm.begin(), okm.end(), key.begin());
  return key;
}

Enclave::Enclave(Platform& platform, util::ByteView code_image, std::string name)
    : platform_(platform), measurement_(measure(code_image)), name_(std::move(name)) {}

util::Bytes Enclave::seal(util::ByteView plaintext) const {
  const std::uint64_t counter = ++seal_counter_;
  util::Writer w;
  w.u64(counter);
  w.raw(crypto::chapoly_seal(derive_sealing_key(platform_, measurement_, kSealLabel),
                             crypto::nonce_from_counter(counter), {}, plaintext));
  return std::move(w).take();
}

std::optional<util::Bytes> Enclave::unseal(util::ByteView sealed) const {
  if (sealed.size() < 8 + crypto::kChapolyTagLen) return std::nullopt;
  util::Reader r(sealed);
  const std::uint64_t counter = r.u64();
  return crypto::chapoly_open(derive_sealing_key(platform_, measurement_, kSealLabel),
                              crypto::nonce_from_counter(counter), {},
                              sealed.subspan(8));
}

}  // namespace bento::tee
