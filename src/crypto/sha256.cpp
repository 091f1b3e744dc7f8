#include "crypto/sha256.hpp"

#include <cstring>

#include "crypto/kernels.hpp"
#include "util/annotations.hpp"

#if BENTO_X86_KERNELS
#include <immintrin.h>
#endif

namespace bento::crypto {

namespace {
constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

BENTO_HOT void compress(std::array<std::uint32_t, 8>& state, const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = static_cast<std::uint32_t>(block[4 * i] << 24) |
           static_cast<std::uint32_t>(block[4 * i + 1] << 16) |
           static_cast<std::uint32_t>(block[4 * i + 2] << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}
}  // namespace

namespace detail {

BENTO_HOT void sha256_blocks_scalar(std::array<std::uint32_t, 8>& state,
                                    const std::uint8_t* blocks, std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, blocks += 64) compress(state, blocks);
}

#if BENTO_X86_KERNELS
// SHA extensions: sha256rnds2 runs two rounds on the state held as the
// register pair ABEF/CDGH, and sha256msg1/msg2 extend the message schedule
// four words at a time, so a 64-byte block is 16 steps of 4 rounds with the
// state in registers across the whole run of blocks.
#define BENTO_SHA_TARGET __attribute__((target("sha,sse4.1")))

namespace {
// Four rounds with message words `msg` (W[4i..4i+3]).
BENTO_SHA_TARGET inline void sha_rounds4(__m128i& abef, __m128i& cdgh, __m128i msg, int i) {
  const __m128i wk = _mm_add_epi32(
      msg, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK.data() + 4 * i)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
}

// W[4i..4i+3] from the previous four groups W[4i-16..4i-1] = m0..m3.
BENTO_SHA_TARGET inline __m128i sha_schedule(__m128i m0, __m128i m1, __m128i m2, __m128i m3) {
  const __m128i t = _mm_add_epi32(_mm_sha256msg1_epu32(m0, m1), _mm_alignr_epi8(m3, m2, 4));
  return _mm_sha256msg2_epu32(t, m3);
}
}  // namespace

BENTO_HOT BENTO_SHA_TARGET void sha256_blocks_shani(std::array<std::uint32_t, 8>& state,
                                                    const std::uint8_t* blocks,
                                                    std::size_t nblocks) {
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  // state words a..h -> ABEF and CDGH, most significant lane first.
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data()));
  const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data() + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
  for (; nblocks > 0; --nblocks, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i m[4];
#pragma GCC unroll 4  // keeps m[] in registers
    for (int i = 0; i < 4; ++i) {
      m[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)), bswap);
      sha_rounds4(abef, cdgh, m[i], i);
    }
    for (int i = 4; i < 16; i += 4) {
      m[0] = sha_schedule(m[0], m[1], m[2], m[3]);
      sha_rounds4(abef, cdgh, m[0], i);
      m[1] = sha_schedule(m[1], m[2], m[3], m[0]);
      sha_rounds4(abef, cdgh, m[1], i + 1);
      m[2] = sha_schedule(m[2], m[3], m[0], m[1]);
      sha_rounds4(abef, cdgh, m[2], i + 2);
      m[3] = sha_schedule(m[3], m[0], m[1], m[2]);
      sha_rounds4(abef, cdgh, m[3], i + 3);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }
  // ABEF/CDGH -> a..h.
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data()), _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data() + 4), _mm_alignr_epi8(dchg, feba, 8));
}
#undef BENTO_SHA_TARGET
#endif  // BENTO_X86_KERNELS

}  // namespace detail

namespace {
using BlocksFn = void (*)(std::array<std::uint32_t, 8>&, const std::uint8_t*, std::size_t);

BlocksFn pick_blocks() {
#if BENTO_X86_KERNELS
  if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1")) {
    return detail::sha256_blocks_shani;
  }
#endif
  return detail::sha256_blocks_scalar;
}

const BlocksFn kBlocks = pick_blocks();
}  // namespace

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

BENTO_HOT void Sha256::update(util::ByteView data) {
  total_ += data.size();
  std::size_t off = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    off = take;
    if (buffered_ == 64) {
      kBlocks(state_, buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  const std::size_t nblocks = (data.size() - off) / 64;
  if (nblocks > 0) {
    kBlocks(state_, data.data() + off, nblocks);
    off += 64 * nblocks;
  }
  if (off < data.size()) {
    std::memcpy(buffer_.data(), data.data() + off, data.size() - off);
    buffered_ = data.size() - off;
  }
}

BENTO_HOT Digest Sha256::peek_digest() const {
  // Pad into a local tail buffer and run the final compression(s) on a local
  // copy of the chaining state: the running state is untouched, so callers
  // can keep absorbing afterwards (and never need to clone the object).
  std::array<std::uint32_t, 8> st = state_;
  std::uint8_t tail[128] = {};
  std::memcpy(tail, buffer_.data(), buffered_);
  tail[buffered_] = 0x80;
  const std::size_t padded = buffered_ + 1 + 8 <= 64 ? 64 : 128;
  const std::uint64_t bit_len = total_ * 8;
  for (int i = 0; i < 8; ++i) {
    tail[padded - 8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  kBlocks(st, tail, padded / 64);
  Digest out{};
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(st[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(st[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(st[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(st[i]);
  }
  return out;
}

Digest Sha256::finish() { return peek_digest(); }

Digest sha256(util::ByteView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

util::Bytes sha256_bytes(util::ByteView data) {
  Digest d = sha256(data);
  return util::Bytes(d.begin(), d.end());
}

}  // namespace bento::crypto
