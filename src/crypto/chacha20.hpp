// ChaCha20 stream cipher (RFC 8439).
//
// Provides the relay-crypto layers for onion encryption and the keystream
// under the AEAD. Verified against the RFC 8439 test vectors.
//
// A refill generates sixteen 64-byte blocks (1 KiB) with the quarter-round
// lanes interleaved (block-index innermost), so each round statement is one
// wide SIMD operation and the blocks' dependency chains overlap: one 16-lane
// AVX-512 kernel when the CPU has it, else two 8-lane calls (AVX2, or split
// vectors). Consumption XORs 64 bytes at a time against the keystream
// buffer, the last partial vector under a byte mask on AVX-512BW. `process`
// works in place on a caller-owned span: the relay datapath crypts a cell
// payload with zero heap allocations.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "util/bytes.hpp"

namespace bento::crypto {

using ChaChaKey = std::array<std::uint8_t, 32>;
using ChaChaNonce = std::array<std::uint8_t, 12>;

/// Stateful cipher: repeated calls continue the keystream, so a pair of
/// instances with the same (key, nonce) forms an in-order encrypted pipe —
/// exactly how a circuit hop applies its layer to successive cells.
class ChaCha20 {
 public:
  ChaCha20(const ChaChaKey& key, const ChaChaNonce& nonce, std::uint32_t counter = 0);

  /// XORs the next keystream bytes into `data`, in place (encrypt == decrypt).
  /// Accepts any contiguous mutable byte range, including util::Bytes.
  void process(std::span<std::uint8_t> data);

  /// Convenience returning a transformed copy.
  util::Bytes transform(util::ByteView data);

 private:
  static constexpr std::size_t kBlocks = 16;  // blocks generated per refill
  void refill();
  std::array<std::uint32_t, 16> state_;
  alignas(64) std::array<std::uint8_t, 64 * kBlocks> block_;
  std::size_t used_ = 64 * kBlocks;  // forces refill on first use
};

/// One-shot encryption with an explicit block counter.
util::Bytes chacha20_xor(const ChaChaKey& key, const ChaChaNonce& nonce,
                         std::uint32_t counter, util::ByteView data);

/// One-shot in-place encryption: no copy of `data` is made.
void chacha20_xor_inplace(const ChaChaKey& key, const ChaChaNonce& nonce,
                          std::uint32_t counter, std::span<std::uint8_t> data);

}  // namespace bento::crypto
