#include "tee/enclave.hpp"

#include <algorithm>

#include "crypto/hmac.hpp"

namespace bento::tee {

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

}  // namespace bento::tee
