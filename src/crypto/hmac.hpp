// HMAC-SHA256 (RFC 2104) and HKDF (RFC 5869).
//
// HKDF is the key-schedule workhorse: circuit hop keys, conclave channel
// keys, sealing keys and hidden-service intro keys are all derived through
// it with distinct info labels.
#pragma once

#include <string_view>

#include "crypto/sha256.hpp"
#include "util/bytes.hpp"

namespace bento::crypto {

/// HMAC-SHA256(key, message).
Digest hmac_sha256(util::ByteView key, util::ByteView message);

/// HKDF-Extract: PRK = HMAC(salt, ikm).
Digest hkdf_extract(util::ByteView salt, util::ByteView ikm);

/// HKDF-Expand to `length` bytes (length <= 255*32).
util::Bytes hkdf_expand(const Digest& prk, util::ByteView info, std::size_t length);

/// Extract-then-expand convenience with a string label.
util::Bytes hkdf(util::ByteView ikm, util::ByteView salt, std::string_view info,
                 std::size_t length);

}  // namespace bento::crypto
