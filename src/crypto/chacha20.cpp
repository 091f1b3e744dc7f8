#include "crypto/chacha20.hpp"

#include <cstring>

#include "crypto/kernels.hpp"
#include "util/annotations.hpp"

namespace bento::crypto {

namespace {
BENTO_HOT std::uint32_t load32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

// ---- 8-block interleaved keystream kernel -------------------------------
//
// Eight blocks are produced per refill, stored lane-innermost (x[word][lane])
// so every quarter-round statement is one 8-wide SIMD operation. On GCC and
// Clang the body is written with vector extensions (portable: the compiler
// splits the 32-byte vectors into whatever the target ISA offers) and is
// instantiated twice — once compiled for AVX2 and once for the baseline ISA
// — with a one-time runtime dispatch on cpuid. Elsewhere a plain scalar body
// keeps the same 8 interleaved dependency chains for ILP.

#if defined(__GNUC__) || defined(__clang__)
#define BENTO_CHACHA_SIMD 1
#endif

#if BENTO_CHACHA_SIMD && (defined(__clang__) || __GNUC__ >= 12) && \
    __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
// __builtin_shufflevector is available and vector lanes are stored in
// keystream (little-endian) byte order: rotates and the output store are
// shuffles. Other targets rotate with shift-or and store word by word.
#define BENTO_CHACHA_SHUFFLE 1
#endif

#if !BENTO_CHACHA_SHUFFLE
BENTO_HOT void store32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}
#endif

#if BENTO_CHACHA_SIMD

#if BENTO_CHACHA_SHUFFLE
// Byte-granular rotates (16 and 8 bits) become single shuffle instructions
// (vpshufb & co.). The u8/u16 lane indices assume little-endian lane layout.
#define BENTO_ROT16(v)                                                        \
  __builtin_shufflevector((v), (v), 1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 13, \
                          12, 15, 14)
#define BENTO_ROT8(v)                                                         \
  __builtin_shufflevector((v), (v), 3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, \
                          12, 13, 14, 19, 16, 17, 18, 23, 20, 21, 22, 27, 24, \
                          25, 26, 31, 28, 29, 30)
#endif

#define BENTO_CHACHA_QR(a, b, c, d)   \
  x[a] += x[b];                       \
  x[d] ^= x[a];                       \
  BENTO_CHACHA_ROT16(x[d]);           \
  x[c] += x[d];                       \
  x[b] ^= x[c];                       \
  x[b] = (x[b] << 12) | (x[b] >> 20); \
  x[a] += x[b];                       \
  x[d] ^= x[a];                       \
  BENTO_CHACHA_ROT8(x[d]);            \
  x[c] += x[d];                       \
  x[b] ^= x[c];                       \
  x[b] = (x[b] << 7) | (x[b] >> 25);

#if BENTO_CHACHA_SHUFFLE
#define BENTO_CHACHA_ROT16(v)                                              \
  {                                                                        \
    using v16 = std::uint16_t __attribute__((vector_size(32)));            \
    v16 h;                                                                 \
    std::memcpy(&h, &(v), 32);                                             \
    h = BENTO_ROT16(h);                                                    \
    std::memcpy(&(v), &h, 32);                                             \
  }
#define BENTO_CHACHA_ROT8(v)                                               \
  {                                                                        \
    using v8 = std::uint8_t __attribute__((vector_size(32)));              \
    v8 b8;                                                                 \
    std::memcpy(&b8, &(v), 32);                                            \
    b8 = BENTO_ROT8(b8);                                                   \
    std::memcpy(&(v), &b8, 32);                                            \
  }
#else
#define BENTO_CHACHA_ROT16(v) (v) = ((v) << 16) | ((v) >> 16)
#define BENTO_CHACHA_ROT8(v) (v) = ((v) << 8) | ((v) >> 24)
#endif

// `state` is the 16-word ChaCha state; writes 8 blocks (512 B) to `block`.
#define BENTO_CHACHA_REFILL_BODY(state, block)                          \
  using vec = std::uint32_t __attribute__((vector_size(32)));           \
  const vec lane_idx = {0, 1, 2, 3, 4, 5, 6, 7};                        \
  vec x[16];                                                            \
  for (int i = 0; i < 16; ++i) x[i] = vec{} + (state)[i];               \
  x[12] += lane_idx; /* per-lane block counters */                      \
  for (int round = 0; round < 10; ++round) {                            \
    BENTO_CHACHA_QR(0, 4, 8, 12)                                        \
    BENTO_CHACHA_QR(1, 5, 9, 13)                                        \
    BENTO_CHACHA_QR(2, 6, 10, 14)                                       \
    BENTO_CHACHA_QR(3, 7, 11, 15)                                       \
    BENTO_CHACHA_QR(0, 5, 10, 15)                                       \
    BENTO_CHACHA_QR(1, 6, 11, 12)                                       \
    BENTO_CHACHA_QR(2, 7, 8, 13)                                        \
    BENTO_CHACHA_QR(3, 4, 9, 14)                                        \
  }                                                                     \
  for (int i = 0; i < 16; ++i) x[i] += vec{} + (state)[i];              \
  x[12] += lane_idx;                                                    \
  BENTO_CHACHA_STORE_HALF(0, block)                                     \
  BENTO_CHACHA_STORE_HALF(8, block)

#if BENTO_CHACHA_SHUFFLE
// Words w0..w0+7 of all 8 blocks: an 8x8 transpose (32-bit, 64-bit and
// 128-bit interleaves — unpck/perm2i128 on AVX2) turns the word-major
// x[w0..w0+7] into one 32-byte row per block, stored at its block's offset.
#define BENTO_LO32 0, 8, 1, 9, 4, 12, 5, 13
#define BENTO_HI32 2, 10, 3, 11, 6, 14, 7, 15
#define BENTO_LO64 0, 1, 8, 9, 4, 5, 12, 13
#define BENTO_HI64 2, 3, 10, 11, 6, 7, 14, 15
#define BENTO_LO128 0, 1, 2, 3, 8, 9, 10, 11
#define BENTO_HI128 4, 5, 6, 7, 12, 13, 14, 15
#define BENTO_CHACHA_STORE_HALF(w0, block)                                        \
  {                                                                               \
    const vec t0 = __builtin_shufflevector(x[(w0)], x[(w0) + 1], BENTO_LO32);     \
    const vec t1 = __builtin_shufflevector(x[(w0)], x[(w0) + 1], BENTO_HI32);     \
    const vec t2 = __builtin_shufflevector(x[(w0) + 2], x[(w0) + 3], BENTO_LO32); \
    const vec t3 = __builtin_shufflevector(x[(w0) + 2], x[(w0) + 3], BENTO_HI32); \
    const vec t4 = __builtin_shufflevector(x[(w0) + 4], x[(w0) + 5], BENTO_LO32); \
    const vec t5 = __builtin_shufflevector(x[(w0) + 4], x[(w0) + 5], BENTO_HI32); \
    const vec t6 = __builtin_shufflevector(x[(w0) + 6], x[(w0) + 7], BENTO_LO32); \
    const vec t7 = __builtin_shufflevector(x[(w0) + 6], x[(w0) + 7], BENTO_HI32); \
    const vec u0 = __builtin_shufflevector(t0, t2, BENTO_LO64);                   \
    const vec u1 = __builtin_shufflevector(t0, t2, BENTO_HI64);                   \
    const vec u2 = __builtin_shufflevector(t1, t3, BENTO_LO64);                   \
    const vec u3 = __builtin_shufflevector(t1, t3, BENTO_HI64);                   \
    const vec u4 = __builtin_shufflevector(t4, t6, BENTO_LO64);                   \
    const vec u5 = __builtin_shufflevector(t4, t6, BENTO_HI64);                   \
    const vec u6 = __builtin_shufflevector(t5, t7, BENTO_LO64);                   \
    const vec u7 = __builtin_shufflevector(t5, t7, BENTO_HI64);                   \
    BENTO_CHACHA_STORE_ROW((block) + 4 * (w0), 0, u0, u4, BENTO_LO128)           \
    BENTO_CHACHA_STORE_ROW((block) + 4 * (w0), 1, u1, u5, BENTO_LO128)           \
    BENTO_CHACHA_STORE_ROW((block) + 4 * (w0), 2, u2, u6, BENTO_LO128)           \
    BENTO_CHACHA_STORE_ROW((block) + 4 * (w0), 3, u3, u7, BENTO_LO128)           \
    BENTO_CHACHA_STORE_ROW((block) + 4 * (w0), 4, u0, u4, BENTO_HI128)           \
    BENTO_CHACHA_STORE_ROW((block) + 4 * (w0), 5, u1, u5, BENTO_HI128)           \
    BENTO_CHACHA_STORE_ROW((block) + 4 * (w0), 6, u2, u6, BENTO_HI128)           \
    BENTO_CHACHA_STORE_ROW((block) + 4 * (w0), 7, u3, u7, BENTO_HI128)           \
  }
#define BENTO_CHACHA_STORE_ROW(out, l, a, b, sel)                 \
  {                                                               \
    const vec row = __builtin_shufflevector((a), (b), sel);       \
    std::memcpy((out) + 64 * (l), &row, 32);                      \
  }
#else
#define BENTO_CHACHA_STORE_HALF(w0, block)                                  \
  for (int l = 0; l < 8; ++l) {                                             \
    for (int i = (w0); i < (w0) + 8; ++i) {                                 \
      store32((block) + 64 * l + 4 * i, x[i][l]);                           \
    }                                                                       \
  }
#endif

}  // namespace

namespace detail {

BENTO_HOT void chacha20_refill_portable(const std::uint32_t* state, std::uint8_t* block) {
  BENTO_CHACHA_REFILL_BODY(state, block)
}

#if BENTO_X86_KERNELS
BENTO_HOT __attribute__((target("avx2"))) void chacha20_refill_avx2(
    const std::uint32_t* state, std::uint8_t* block) {
  BENTO_CHACHA_REFILL_BODY(state, block)
}
#endif

#undef BENTO_CHACHA_REFILL_BODY
#undef BENTO_CHACHA_STORE_HALF
#undef BENTO_CHACHA_STORE_ROW
#undef BENTO_LO32
#undef BENTO_HI32
#undef BENTO_LO64
#undef BENTO_HI64
#undef BENTO_LO128
#undef BENTO_HI128
#undef BENTO_CHACHA_QR

}  // namespace detail

namespace {

using RefillFn = void (*)(const std::uint32_t*, std::uint8_t*);

RefillFn pick_refill() {
#if BENTO_X86_KERNELS
  if (__builtin_cpu_supports("avx2")) return detail::chacha20_refill_avx2;
#endif
  return detail::chacha20_refill_portable;
}

const RefillFn kRefill = pick_refill();

#else  // !BENTO_CHACHA_SIMD: scalar fallback, 8 interleaved chains

BENTO_HOT void quarter_round(std::uint32_t x[16][8], int a, int b, int c, int d) {
  for (int l = 0; l < 8; ++l) {
    x[a][l] += x[b][l];
    x[d][l] ^= x[a][l];
    x[d][l] = (x[d][l] << 16) | (x[d][l] >> 16);
    x[c][l] += x[d][l];
    x[b][l] ^= x[c][l];
    x[b][l] = (x[b][l] << 12) | (x[b][l] >> 20);
    x[a][l] += x[b][l];
    x[d][l] ^= x[a][l];
    x[d][l] = (x[d][l] << 8) | (x[d][l] >> 24);
    x[c][l] += x[d][l];
    x[b][l] ^= x[c][l];
    x[b][l] = (x[b][l] << 7) | (x[b][l] >> 25);
  }
}

}  // namespace

namespace detail {

BENTO_HOT void chacha20_refill_portable(const std::uint32_t* state, std::uint8_t* block) {
  std::uint32_t x[16][8];
  for (int i = 0; i < 16; ++i) {
    for (int l = 0; l < 8; ++l) x[i][l] = state[i];
  }
  for (int l = 0; l < 8; ++l) x[12][l] += static_cast<std::uint32_t>(l);
  for (int round = 0; round < 10; ++round) {
    quarter_round(x, 0, 4, 8, 12);
    quarter_round(x, 1, 5, 9, 13);
    quarter_round(x, 2, 6, 10, 14);
    quarter_round(x, 3, 7, 11, 15);
    quarter_round(x, 0, 5, 10, 15);
    quarter_round(x, 1, 6, 11, 12);
    quarter_round(x, 2, 7, 8, 13);
    quarter_round(x, 3, 4, 9, 14);
  }
  for (int l = 0; l < 8; ++l) {
    std::uint8_t* out = block + 64 * l;
    for (int i = 0; i < 16; ++i) {
      std::uint32_t v = x[i][l] + state[i];
      if (i == 12) v += static_cast<std::uint32_t>(l);
      store32(out + 4 * i, v);
    }
  }
}

}  // namespace detail

namespace {

constexpr auto kRefill = detail::chacha20_refill_portable;

#endif  // BENTO_CHACHA_SIMD
}  // namespace

ChaCha20::ChaCha20(const ChaChaKey& key, const ChaChaNonce& nonce, std::uint32_t counter) {
  state_[0] = 0x61707865;
  state_[1] = 0x3320646e;
  state_[2] = 0x79622d32;
  state_[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) state_[4 + i] = load32(key.data() + 4 * i);
  state_[12] = counter;
  for (int i = 0; i < 3; ++i) state_[13 + i] = load32(nonce.data() + 4 * i);
}

BENTO_HOT void ChaCha20::refill() {
  kRefill(state_.data(), block_.data());
  state_[12] += static_cast<std::uint32_t>(kLanes);
  used_ = 0;
}

BENTO_HOT void ChaCha20::process(std::span<std::uint8_t> data) {
  std::size_t off = 0;
  const std::size_t n = data.size();
  while (off < n) {
    if (used_ == block_.size()) refill();
    const std::size_t take = std::min(block_.size() - used_, n - off);
    std::uint8_t* d = data.data() + off;
    const std::uint8_t* k = block_.data() + used_;
    std::size_t i = 0;
    // Word-at-a-time XOR; memcpy keeps it alignment- and aliasing-safe and
    // the compiler widens the loop to full vector registers.
    for (; i + 8 <= take; i += 8) {
      std::uint64_t dv;
      std::uint64_t kv;
      std::memcpy(&dv, d + i, 8);
      std::memcpy(&kv, k + i, 8);
      dv ^= kv;
      std::memcpy(d + i, &dv, 8);
    }
    for (; i < take; ++i) d[i] ^= k[i];
    used_ += take;
    off += take;
  }
}

util::Bytes ChaCha20::transform(util::ByteView data) {
  util::Bytes out(data.begin(), data.end());
  process(out);
  return out;
}

util::Bytes chacha20_xor(const ChaChaKey& key, const ChaChaNonce& nonce,
                         std::uint32_t counter, util::ByteView data) {
  ChaCha20 c(key, nonce, counter);
  return c.transform(data);
}

BENTO_HOT void chacha20_xor_inplace(const ChaChaKey& key, const ChaChaNonce& nonce,
                                    std::uint32_t counter, std::span<std::uint8_t> data) {
  ChaCha20 c(key, nonce, counter);
  c.process(data);
}

}  // namespace bento::crypto
