#include "store/sealer.hpp"

#include "crypto/poly1305.hpp"
#include "util/annotations.hpp"

namespace bento::store {

void NullSealer::seal_append(util::Bytes& out, std::uint64_t /*seq*/,
                             util::ByteView /*aad*/, util::ByteView plaintext) {
  out.insert(out.end(), plaintext.begin(),
             plaintext.end());  // bentolint: allow(BL102 amortized by segment reserve)
}

std::optional<util::Bytes> NullSealer::open(std::uint64_t /*seq*/,
                                            util::ByteView /*aad*/,
                                            util::ByteView sealed) {
  return util::Bytes(sealed.begin(), sealed.end());
}

BENTO_HOT void ChaPolySealer::seal_append(util::Bytes& out, std::uint64_t seq,
                                          util::ByteView aad,
                                          util::ByteView plaintext) {
  crypto::chapoly_seal_append(out, key_, crypto::nonce_from_counter(seq), aad,
                              plaintext);
}

std::optional<util::Bytes> ChaPolySealer::open(std::uint64_t seq,
                                               util::ByteView aad,
                                               util::ByteView sealed) {
  return crypto::chapoly_open(key_, crypto::nonce_from_counter(seq), aad, sealed);
}

std::unique_ptr<Sealer> make_null_sealer() { return std::make_unique<NullSealer>(); }

std::unique_ptr<Sealer> make_chapoly_sealer(const crypto::ChaChaKey& key) {
  return std::make_unique<ChaPolySealer>(key);
}

}  // namespace bento::store
