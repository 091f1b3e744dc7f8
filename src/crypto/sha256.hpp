// SHA-256 (FIPS 180-4), implemented from scratch for the simulator.
//
// Used for relay fingerprints, cell digests, enclave measurements, and as
// the hash under HMAC/HKDF. Verified against NIST test vectors in
// tests/crypto_test.cpp.
//
// Whole 64-byte blocks go to one block kernel per call: the SHA-NI kernel
// when the CPU has the SHA extensions (picked once at startup), else the
// portable scalar one; both are declared in crypto/kernels.hpp.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.hpp"

namespace bento::crypto {

using Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256.
class Sha256 {
 public:
  Sha256();
  /// Absorbs more input (any contiguous byte range, zero-copy).
  void update(util::ByteView data);
  /// Finalizes and returns the digest; the object must not be reused after.
  Digest finish();
  /// Digest of everything absorbed so far, without disturbing the running
  /// state: the object stays usable and no copy of it is needed. This is
  /// the relay-datapath path — LayerCrypto commits a cell into the running
  /// digest and reads the 4-byte check value from here, allocation-free.
  Digest peek_digest() const;

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_ = 0;
};

/// One-shot convenience.
Digest sha256(util::ByteView data);

/// Digest as an owned byte vector (handy for wire formats).
util::Bytes sha256_bytes(util::ByteView data);

}  // namespace bento::crypto
