#include "crypto/chacha20.hpp"

#include <cstring>

#include "crypto/kernels.hpp"
#include "util/annotations.hpp"

#if BENTO_CHACHA_AVX512
#include <immintrin.h>
#endif

namespace bento::crypto {

namespace {
BENTO_HOT std::uint32_t load32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

// ---- Interleaved keystream kernels ---------------------------------------
//
// Blocks are produced stored lane-innermost (x[word][lane]) so every
// quarter-round statement is one SIMD operation over all blocks. The body is
// written with GCC/Clang vector extensions (the tree needs one of the two
// anyway: it uses unsigned __int128) and instantiated per target: 8 lanes
// for the baseline ISA (the compiler splits the 32-byte vectors into
// whatever it offers) and for AVX2, 16 lanes for AVX-512, with a one-time
// runtime dispatch on cpuid.

#if (defined(__clang__) || __GNUC__ >= 12) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
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

#define BENTO_CHACHA_ROTL(v, n) (v) = ((v) << (n)) | ((v) >> (32 - (n)))

#define BENTO_CHACHA_QR(a, b, c, d, ROT16, ROT8) \
  x[a] += x[b];                                  \
  x[d] ^= x[a];                                  \
  ROT16(x[d]);                                   \
  x[c] += x[d];                                  \
  x[b] ^= x[c];                                  \
  BENTO_CHACHA_ROTL(x[b], 12);                   \
  x[a] += x[b];                                  \
  x[d] ^= x[a];                                  \
  ROT8(x[d]);                                    \
  x[c] += x[d];                                  \
  x[b] ^= x[c];                                  \
  BENTO_CHACHA_ROTL(x[b], 7);

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
#define BENTO_CHACHA_ROT16(v) BENTO_CHACHA_ROTL(v, 16)
#define BENTO_CHACHA_ROT8(v) BENTO_CHACHA_ROTL(v, 8)
#endif

// The 20 rounds over x[16], one block per lane of the caller's `vec`: loads
// `state` with lane l's block counter at state[12] + l (`lane_idx`), runs
// the rounds with the given 16- and 8-bit rotates and adds the input back.
#define BENTO_CHACHA_ROUNDS(state, ROT16, ROT8)                         \
  vec x[16];                                                            \
  for (int i = 0; i < 16; ++i) x[i] = vec{} + (state)[i];               \
  x[12] += lane_idx; /* per-lane block counters */                      \
  for (int round = 0; round < 10; ++round) {                            \
    BENTO_CHACHA_QR(0, 4, 8, 12, ROT16, ROT8)                           \
    BENTO_CHACHA_QR(1, 5, 9, 13, ROT16, ROT8)                           \
    BENTO_CHACHA_QR(2, 6, 10, 14, ROT16, ROT8)                          \
    BENTO_CHACHA_QR(3, 7, 11, 15, ROT16, ROT8)                          \
    BENTO_CHACHA_QR(0, 5, 10, 15, ROT16, ROT8)                          \
    BENTO_CHACHA_QR(1, 6, 11, 12, ROT16, ROT8)                          \
    BENTO_CHACHA_QR(2, 7, 8, 13, ROT16, ROT8)                           \
    BENTO_CHACHA_QR(3, 4, 9, 14, ROT16, ROT8)                           \
  }                                                                     \
  for (int i = 0; i < 16; ++i) x[i] += vec{} + (state)[i];              \
  x[12] += lane_idx;

// `state` is the 16-word ChaCha state; writes 8 blocks (512 B) to `block`.
#define BENTO_CHACHA_REFILL_BODY(state, block)                          \
  using vec = std::uint32_t __attribute__((vector_size(32)));           \
  const vec lane_idx = {0, 1, 2, 3, 4, 5, 6, 7};                        \
  BENTO_CHACHA_ROUNDS(state, BENTO_CHACHA_ROT16, BENTO_CHACHA_ROT8)     \
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

#if BENTO_CHACHA_AVX512
#define BENTO_AVX512_TARGET __attribute__((target("avx512f,avx512vl,avx512bw")))
// One step of the 16x16 transpose: for every pair of rows i and i + s (i
// without bit s), swap the s-wide column blocks where the row has bit s
// clear and the column has it set with their mirror images. The four steps
// s = 1, 2, 4, 8 swap every bit of the row index with the column's, turning
// word-major x[word][block] into one 64-byte row per block.
#define BENTO_SWAP_LO1 0, 16, 2, 18, 4, 20, 6, 22, 8, 24, 10, 26, 12, 28, 14, 30
#define BENTO_SWAP_HI1 1, 17, 3, 19, 5, 21, 7, 23, 9, 25, 11, 27, 13, 29, 15, 31
#define BENTO_SWAP_LO2 0, 1, 16, 17, 4, 5, 20, 21, 8, 9, 24, 25, 12, 13, 28, 29
#define BENTO_SWAP_HI2 2, 3, 18, 19, 6, 7, 22, 23, 10, 11, 26, 27, 14, 15, 30, 31
#define BENTO_SWAP_LO4 0, 1, 2, 3, 16, 17, 18, 19, 8, 9, 10, 11, 24, 25, 26, 27
#define BENTO_SWAP_HI4 4, 5, 6, 7, 20, 21, 22, 23, 12, 13, 14, 15, 28, 29, 30, 31
#define BENTO_SWAP_LO8 0, 1, 2, 3, 4, 5, 6, 7, 16, 17, 18, 19, 20, 21, 22, 23
#define BENTO_SWAP_HI8 8, 9, 10, 11, 12, 13, 14, 15, 24, 25, 26, 27, 28, 29, 30, 31
#define BENTO_CHACHA_SWAP_PAIR(s, i)                                       \
  {                                                                        \
    const vec a = x[(i)];                                                  \
    const vec b = x[(i) + (s)];                                            \
    x[(i)] = __builtin_shufflevector(a, b, BENTO_SWAP_LO##s);              \
    x[(i) + (s)] = __builtin_shufflevector(a, b, BENTO_SWAP_HI##s);        \
  }
#define BENTO_CHACHA_SWAP(s, i0, i1, i2, i3, i4, i5, i6, i7)                 \
  BENTO_CHACHA_SWAP_PAIR(s, i0) BENTO_CHACHA_SWAP_PAIR(s, i1)                \
  BENTO_CHACHA_SWAP_PAIR(s, i2) BENTO_CHACHA_SWAP_PAIR(s, i3)                \
  BENTO_CHACHA_SWAP_PAIR(s, i4) BENTO_CHACHA_SWAP_PAIR(s, i5)                \
  BENTO_CHACHA_SWAP_PAIR(s, i6) BENTO_CHACHA_SWAP_PAIR(s, i7)
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

#if BENTO_CHACHA_AVX512
// 16 lanes fill a 512-bit register, and AVX-512F rotates by any distance in
// one instruction (vprold), so every rotate is written as shift-or.
#define BENTO_CHACHA_ROTL16(v) BENTO_CHACHA_ROTL(v, 16)
#define BENTO_CHACHA_ROTL8(v) BENTO_CHACHA_ROTL(v, 8)
BENTO_HOT BENTO_AVX512_TARGET void chacha20_refill_avx512(const std::uint32_t* state,
                                                          std::uint8_t* block) {
  using vec = std::uint32_t __attribute__((vector_size(64)));
  const vec lane_idx = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15};
  BENTO_CHACHA_ROUNDS(state, BENTO_CHACHA_ROTL16, BENTO_CHACHA_ROTL8)
  BENTO_CHACHA_SWAP(1, 0, 2, 4, 6, 8, 10, 12, 14)
  BENTO_CHACHA_SWAP(2, 0, 1, 4, 5, 8, 9, 12, 13)
  BENTO_CHACHA_SWAP(4, 0, 1, 2, 3, 8, 9, 10, 11)
  BENTO_CHACHA_SWAP(8, 0, 1, 2, 3, 4, 5, 6, 7)
  for (int l = 0; l < 16; ++l) std::memcpy(block + 64 * l, &x[l], 64);
}
#undef BENTO_CHACHA_ROTL16
#undef BENTO_CHACHA_ROTL8
#undef BENTO_CHACHA_SWAP
#undef BENTO_CHACHA_SWAP_PAIR
#undef BENTO_SWAP_LO1
#undef BENTO_SWAP_HI1
#undef BENTO_SWAP_LO2
#undef BENTO_SWAP_HI2
#undef BENTO_SWAP_LO4
#undef BENTO_SWAP_HI4
#undef BENTO_SWAP_LO8
#undef BENTO_SWAP_HI8
#endif

#undef BENTO_CHACHA_REFILL_BODY
#undef BENTO_CHACHA_ROUNDS
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

// ---- Dispatch -------------------------------------------------------------
//
// A refill writes the 16 blocks (1 KiB) after state[12]; the 8-block kernels
// make it in two calls.
using RefillFn = void (*)(const std::uint32_t*, std::uint8_t*);

template <RefillFn kHalf>
BENTO_HOT void refill_in_halves(const std::uint32_t* state, std::uint8_t* block) {
  kHalf(state, block);
  std::uint32_t next[16];
  std::memcpy(next, state, sizeof(next));
  next[12] += 8;
  kHalf(next, block + 512);
}

RefillFn pick_refill() {
#if BENTO_CHACHA_AVX512
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vl") &&
      __builtin_cpu_supports("avx512bw")) {
    return detail::chacha20_refill_avx512;
  }
#endif
#if BENTO_X86_KERNELS
  if (__builtin_cpu_supports("avx2")) return refill_in_halves<detail::chacha20_refill_avx2>;
#endif
  return refill_in_halves<detail::chacha20_refill_portable>;
}

// XORs `n` keystream bytes `k` into `d`.
using XorFn = void (*)(std::uint8_t* d, const std::uint8_t* k, std::size_t n);

BENTO_HOT void xor_portable(std::uint8_t* d, const std::uint8_t* k, std::size_t n) {
  std::size_t i = 0;
  // Word-at-a-time XOR; memcpy keeps it alignment- and aliasing-safe and
  // the compiler widens the loop to full vector registers.
  for (; i + 8 <= n; i += 8) {
    std::uint64_t dv;
    std::uint64_t kv;
    std::memcpy(&dv, d + i, 8);
    std::memcpy(&kv, k + i, 8);
    dv ^= kv;
    std::memcpy(d + i, &dv, 8);
  }
  for (; i < n; ++i) d[i] ^= k[i];
}

#if BENTO_CHACHA_AVX512
// 64 bytes per step, and the last 1..63 under a byte mask: a masked load
// reads nothing past the mask, so the tail needs no scalar loop.
BENTO_HOT BENTO_AVX512_TARGET void xor_avx512(std::uint8_t* d, const std::uint8_t* k,
                                              std::size_t n) {
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512i v =
        _mm512_xor_si512(_mm512_loadu_si512(d + i), _mm512_loadu_si512(k + i));
    _mm512_storeu_si512(d + i, v);
  }
  if (i < n) {
    const __mmask64 m = (std::uint64_t{1} << (n - i)) - 1;
    const __m512i v = _mm512_xor_si512(_mm512_maskz_loadu_epi8(m, d + i),
                                       _mm512_maskz_loadu_epi8(m, k + i));
    _mm512_mask_storeu_epi8(d + i, m, v);
  }
}
#endif

XorFn pick_xor() {
#if BENTO_CHACHA_AVX512
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw")) {
    return xor_avx512;
  }
#endif
  return xor_portable;
}

const RefillFn kRefill = pick_refill();
const XorFn kXor = pick_xor();

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
  state_[12] += static_cast<std::uint32_t>(kBlocks);
  used_ = 0;
}

BENTO_HOT void ChaCha20::process(std::span<std::uint8_t> data) {
  std::size_t off = 0;
  const std::size_t n = data.size();
  while (off < n) {
    if (used_ == block_.size()) refill();
    const std::size_t take = std::min(block_.size() - used_, n - off);
    kXor(data.data() + off, block_.data() + used_, take);
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
