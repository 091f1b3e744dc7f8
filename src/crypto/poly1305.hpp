// Poly1305 one-time authenticator and the ChaCha20-Poly1305 AEAD
// (RFC 8439), verified against the RFC test vectors.
//
// This is the repository's one AEAD: the attested secure channel and
// FS-Protect (tee/conclave.hpp), enclave sealing (tee/enclave.hpp), the
// durable store's record sealer (store/sealer.hpp) and hidden-service intro
// blobs (tor/hs.hpp) all seal with it. Every tag comes from one routine
// that reads the RFC 8439 MAC input (padded AAD, padded ciphertext, the two
// lengths) where it already sits, so sealing copies nothing but the
// plaintext into its output.
#pragma once

#include <array>
#include <optional>

#include "crypto/chacha20.hpp"
#include "util/bytes.hpp"

namespace bento::crypto {

using Poly1305Key = std::array<std::uint8_t, 32>;  // r || s
using Poly1305Tag = std::array<std::uint8_t, 16>;

inline constexpr std::size_t kChapolyTagLen = 16;

/// One-shot Poly1305 MAC. The key must never authenticate two messages.
Poly1305Tag poly1305(const Poly1305Key& key, util::ByteView message);

/// RFC 8439 AEAD_CHACHA20_POLY1305: returns ciphertext || 16-byte tag.
util::Bytes chapoly_seal(const ChaChaKey& key, const ChaChaNonce& nonce,
                         util::ByteView aad, util::ByteView plaintext);

/// chapoly_seal appending to `out`. Allocates nothing beyond `out`'s own
/// growth, so a caller that reserved room seals with zero allocations.
void chapoly_seal_append(util::Bytes& out, const ChaChaKey& key,
                         const ChaChaNonce& nonce, util::ByteView aad,
                         util::ByteView plaintext);

/// Opens a chapoly_seal buffer; nullopt on authentication failure.
std::optional<util::Bytes> chapoly_open(const ChaChaKey& key,
                                        const ChaChaNonce& nonce,
                                        util::ByteView aad, util::ByteView sealed);

/// Builds a 12-byte nonce from a 64-bit sequence number (low 8 bytes LE).
ChaChaNonce nonce_from_counter(std::uint64_t counter);

}  // namespace bento::crypto
