#include "crypto/poly1305.hpp"

#include <cstring>

#include "util/annotations.hpp"

namespace bento::crypto {

namespace {
using u128 = unsigned __int128;
constexpr std::uint64_t kMask44 = (std::uint64_t{1} << 44) - 1;
constexpr std::uint64_t kMask42 = (std::uint64_t{1} << 42) - 1;
constexpr std::uint64_t kHibit = std::uint64_t{1} << 40;  // 2^128 in limb 2

// Spelled out byte by byte and `inline`, so at -O2 it is inlined and merged
// into one load on little-endian hosts.
BENTO_HOT inline std::uint64_t load64(const std::uint8_t* p) {
  return std::uint64_t{p[0]} | std::uint64_t{p[1]} << 8 | std::uint64_t{p[2]} << 16 |
         std::uint64_t{p[3]} << 24 | std::uint64_t{p[4]} << 32 |
         std::uint64_t{p[5]} << 40 | std::uint64_t{p[6]} << 48 |
         std::uint64_t{p[7]} << 56;
}

BENTO_HOT void store64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// Poly1305 over three limbs of 44, 44 and 42 bits (poly1305-donna-64
/// style): every limb product fits an unsigned __int128, and a term of
/// weight 2^132 folds back as 20 because 2^130 = 5 (mod 2^130 - 5).
class Poly1305State {
 public:
  explicit Poly1305State(const Poly1305Key& key)
      : pad0_(load64(key.data() + 16)), pad1_(load64(key.data() + 24)) {
    const std::uint64_t t0 = load64(key.data()), t1 = load64(key.data() + 8);
    r0_ = t0 & 0xffc0fffffff;  // clamped r, split 44/44/42
    r1_ = (t0 >> 44 | t1 << 20) & 0xfffffc0ffff;
    r2_ = t1 >> 24 & 0x00ffffffc0f;
  }

  /// Absorbs `data`. A trailing partial block is zero-padded to 16 bytes
  /// when `zero_pad` (the RFC 8439 §2.8 MAC input), else closed with the
  /// 0x01 marker of a plain Poly1305 message.
  BENTO_HOT void absorb(util::ByteView data, bool zero_pad) {
    const std::size_t full = data.size() & ~std::size_t{15};
    blocks(data.data(), full, kHibit);
    if (full == data.size()) return;
    std::uint8_t last[16] = {};
    std::memcpy(last, data.data() + full, data.size() - full);
    if (!zero_pad) last[data.size() - full] = 1;
    blocks(last, 16, zero_pad ? kHibit : 0);
  }

  BENTO_HOT Poly1305Tag finish() const {
    std::uint64_t h0 = h0_, h1 = h1_, h2 = h2_;
    // Fully carry h, then compute g = h - p and keep it when h >= p.
    std::uint64_t c = h1 >> 44;
    h1 &= kMask44;
    for (int round = 0; round < 2; ++round) {
      h2 += c, c = h2 >> 42, h2 &= kMask42;
      h0 += c * 5, c = h0 >> 44, h0 &= kMask44;
      h1 += c, c = h1 >> 44, h1 &= kMask44;
    }
    h2 += c;
    std::uint64_t g0 = h0 + 5;
    c = g0 >> 44, g0 &= kMask44;
    std::uint64_t g1 = h1 + c;
    c = g1 >> 44, g1 &= kMask44;
    const std::uint64_t g2 = h2 + c - (std::uint64_t{1} << 42);
    const std::uint64_t keep_g = (g2 >> 63) - 1;  // all-ones iff h >= p
    h0 = (h0 & ~keep_g) | (g0 & keep_g);
    h1 = (h1 & ~keep_g) | (g1 & keep_g);
    h2 = (h2 & ~keep_g) | (g2 & keep_g);

    // tag = (h + s) mod 2^128.
    h0 += pad0_ & kMask44, c = h0 >> 44, h0 &= kMask44;
    h1 += ((pad0_ >> 44 | pad1_ << 20) & kMask44) + c, c = h1 >> 44, h1 &= kMask44;
    h2 += (pad1_ >> 24) + c;
    Poly1305Tag tag{};
    store64(tag.data(), h0 | h1 << 44);
    store64(tag.data() + 8, h1 >> 20 | h2 << 24);
    return tag;
  }

 private:
  /// Absorbs whole 16-byte blocks; `hibit` is the 2^128 bit every block
  /// carries except a marker-closed final one.
  BENTO_HOT void blocks(const std::uint8_t* m, std::size_t bytes,
                        std::uint64_t hibit) {
    const std::uint64_t r0 = r0_, r1 = r1_, r2 = r2_;
    const std::uint64_t s1 = r1 * 20, s2 = r2 * 20;
    std::uint64_t h0 = h0_, h1 = h1_, h2 = h2_;
    for (; bytes >= 16; m += 16, bytes -= 16) {
      const std::uint64_t t0 = load64(m), t1 = load64(m + 8);
      h0 += t0 & kMask44;
      h1 += (t0 >> 44 | t1 << 20) & kMask44;
      h2 += (t1 >> 24) | hibit;
      const u128 d0 = u128{h0} * r0 + u128{h1} * s2 + u128{h2} * s1;
      u128 d1 = u128{h0} * r1 + u128{h1} * r0 + u128{h2} * s2;
      u128 d2 = u128{h0} * r2 + u128{h1} * r1 + u128{h2} * r0;
      h0 = static_cast<std::uint64_t>(d0) & kMask44;
      d1 += static_cast<std::uint64_t>(d0 >> 44);
      h1 = static_cast<std::uint64_t>(d1) & kMask44;
      d2 += static_cast<std::uint64_t>(d1 >> 44);
      h2 = static_cast<std::uint64_t>(d2) & kMask42;
      h0 += static_cast<std::uint64_t>(d2 >> 42) * 5;
      h1 += h0 >> 44;
      h0 &= kMask44;
    }
    h0_ = h0, h1_ = h1, h2_ = h2;
  }

  std::uint64_t r0_, r1_, r2_;
  std::uint64_t h0_ = 0, h1_ = 0, h2_ = 0;
  std::uint64_t pad0_, pad1_;
};

/// The one RFC 8439 tag routine: Poly1305 under the block-0 one-time key
/// over padded AAD, padded ciphertext and the two little-endian lengths.
BENTO_HOT Poly1305Tag chapoly_tag(const ChaChaKey& key, const ChaChaNonce& nonce,
                                  util::ByteView aad, util::ByteView ciphertext) {
  Poly1305Key otk{};
  chacha20_xor_inplace(key, nonce, 0, otk);
  Poly1305State mac(otk);
  mac.absorb(aad, true);
  mac.absorb(ciphertext, true);
  std::uint8_t lengths[16];
  store64(lengths, aad.size());
  store64(lengths + 8, ciphertext.size());
  mac.absorb(lengths, true);
  return mac.finish();
}
}  // namespace

BENTO_HOT Poly1305Tag poly1305(const Poly1305Key& key, util::ByteView message) {
  Poly1305State mac(key);
  mac.absorb(message, false);
  return mac.finish();
}

util::Bytes chapoly_seal(const ChaChaKey& key, const ChaChaNonce& nonce,
                         util::ByteView aad, util::ByteView plaintext) {
  util::Bytes out;
  out.reserve(plaintext.size() + kChapolyTagLen);
  chapoly_seal_append(out, key, nonce, aad, plaintext);
  return out;
}

BENTO_HOT void chapoly_seal_append(util::Bytes& out, const ChaChaKey& key,
                                   const ChaChaNonce& nonce, util::ByteView aad,
                                   util::ByteView plaintext) {
  const std::size_t base = out.size();
  // bentolint: allow(BL102 grows the caller's buffer, which it reserved)
  out.insert(out.end(), plaintext.begin(), plaintext.end());
  const std::span<std::uint8_t> ciphertext(out.data() + base, plaintext.size());
  chacha20_xor_inplace(key, nonce, 1, ciphertext);
  const Poly1305Tag tag = chapoly_tag(key, nonce, aad, ciphertext);
  // bentolint: allow(BL102 grows the caller's buffer, which it reserved)
  out.insert(out.end(), tag.begin(), tag.end());
}

std::optional<util::Bytes> chapoly_open(const ChaChaKey& key,
                                        const ChaChaNonce& nonce,
                                        util::ByteView aad, util::ByteView sealed) {
  if (sealed.size() < kChapolyTagLen) return std::nullopt;
  const util::ByteView ciphertext = sealed.first(sealed.size() - kChapolyTagLen);
  const Poly1305Tag expect = chapoly_tag(key, nonce, aad, ciphertext);
  if (!util::ct_equal(sealed.last(kChapolyTagLen), expect)) return std::nullopt;
  util::Bytes plaintext(ciphertext.begin(), ciphertext.end());
  chacha20_xor_inplace(key, nonce, 1, plaintext);
  return plaintext;
}

ChaChaNonce nonce_from_counter(std::uint64_t counter) {
  ChaChaNonce n{};
  store64(n.data() + 4, counter);
  return n;
}

}  // namespace bento::crypto
