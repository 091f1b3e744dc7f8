#include "crypto/poly1305.hpp"

#include <cstring>

#include "crypto/kernels.hpp"
#include "util/annotations.hpp"

#if BENTO_X86_KERNELS
#include <immintrin.h>
#endif

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

/// h = h * r mod 2^130 - 5 over limbs of 44, 44 and 42 bits
/// (poly1305-donna-64 style): every limb product fits an unsigned __int128,
/// and a term of weight 2^132 folds back as 20 because 2^130 = 5 (mod
/// 2^130 - 5). Leaves h0 below 2^44, h1 just above and h2 below 2^42.
BENTO_HOT inline void mul_r(std::uint64_t& h0, std::uint64_t& h1, std::uint64_t& h2,
                            std::uint64_t r0, std::uint64_t r1, std::uint64_t r2) {
  const std::uint64_t s1 = r1 * 20, s2 = r2 * 20;
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
}  // namespace

namespace detail {

BENTO_HOT void poly1305_blocks_scalar(Poly1305Limbs& st, const std::uint8_t* m,
                                      std::size_t nblocks, std::uint64_t hibit) {
  const std::uint64_t r0 = st.r[0], r1 = st.r[1], r2 = st.r[2];
  std::uint64_t h0 = st.h[0], h1 = st.h[1], h2 = st.h[2];
  for (; nblocks > 0; --nblocks, m += 16) {
    const std::uint64_t t0 = load64(m), t1 = load64(m + 8);
    h0 += t0 & kMask44;
    h1 += (t0 >> 44 | t1 << 20) & kMask44;
    h2 += (t1 >> 24) | hibit;
    mul_r(h0, h1, h2, r0, r1, r2);
  }
  st.h[0] = h0, st.h[1] = h1, st.h[2] = h2;
}

BENTO_HOT void poly1305_powers(Poly1305Limbs& st) {
  std::uint64_t p0 = st.r[0], p1 = st.r[1], p2 = st.r[2];
  for (int j = 7; j >= 0; --j) {  // lane j holds r^(8 - j)
    if (j < 7) mul_r(p0, p1, p2, st.r[0], st.r[1], st.r[2]);
    st.pow[0][j] = p0, st.pow[1][j] = p1, st.pow[2][j] = p2;
  }
}

#if BENTO_X86_KERNELS
// 52-bit multiply-accumulate (vpmadd52luq/vpmadd52huq) on the scalar's own
// limbs: a limb of h and a power's limb (or 20 times it) each stay under
// 2^52, the low half of their 104-bit product lands at the term's weight
// and the high half 52 bits up, 8 bits into the next limb. Shifts, masks
// and adds are vector extensions, as in chacha20.cpp (GCC 12's AVX-512
// shift intrinsics warn at -O2); only the multiply and the permute are
// intrinsics.
#define BENTO_IFMA_TARGET __attribute__((target("avx512f,avx512ifma")))

namespace {
using u64x8 = std::uint64_t __attribute__((vector_size(64)));

BENTO_IFMA_TARGET inline u64x8 madd_lo(u64x8 acc, u64x8 a, u64x8 b) {
  return (u64x8)_mm512_madd52lo_epu64((__m512i)acc, (__m512i)a, (__m512i)b);
}

BENTO_IFMA_TARGET inline u64x8 madd_hi(u64x8 acc, u64x8 a, u64x8 b) {
  return (u64x8)_mm512_madd52hi_epu64((__m512i)acc, (__m512i)a, (__m512i)b);
}

// One group of eight blocks: h = (h + m) * r lane by lane, carried as the
// scalar loop carries. r0..r2 and s1 = 20 r1, s2 = 20 r2 hold each lane's
// multiplier.
BENTO_HOT BENTO_IFMA_TARGET inline void ifma_group(u64x8& h0, u64x8& h1, u64x8& h2,
                                                   const std::uint8_t* m, u64x8 r0, u64x8 r1,
                                                   u64x8 r2, u64x8 s1, u64x8 s2) {
  // Blocks 0..3 and 4..7 as (t0, t1) word pairs; lane j takes block j's.
  u64x8 lo;
  u64x8 hi;
  std::memcpy(&lo, m, 64);
  std::memcpy(&hi, m + 64, 64);
  const u64x8 t0 = (u64x8)_mm512_permutex2var_epi64(
      (__m512i)lo, _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14), (__m512i)hi);
  const u64x8 t1 = (u64x8)_mm512_permutex2var_epi64(
      (__m512i)lo, _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15), (__m512i)hi);
  h0 += t0 & kMask44;
  h1 += (t0 >> 44 | t1 << 20) & kMask44;
  h2 += t1 >> 24 | kHibit;

  const u64x8 zero = {};
  u64x8 d0lo = madd_lo(zero, h0, r0);
  u64x8 d0hi = madd_hi(zero, h0, r0);
  u64x8 d1lo = madd_lo(zero, h0, r1);
  u64x8 d1hi = madd_hi(zero, h0, r1);
  u64x8 d2lo = madd_lo(zero, h0, r2);
  u64x8 d2hi = madd_hi(zero, h0, r2);
  d0lo = madd_lo(d0lo, h1, s2);
  d0hi = madd_hi(d0hi, h1, s2);
  d1lo = madd_lo(d1lo, h1, r0);
  d1hi = madd_hi(d1hi, h1, r0);
  d2lo = madd_lo(d2lo, h1, r1);
  d2hi = madd_hi(d2hi, h1, r1);
  d0lo = madd_lo(d0lo, h2, s1);
  d0hi = madd_hi(d0hi, h2, s1);
  d1lo = madd_lo(d1lo, h2, s2);
  d1hi = madd_hi(d1hi, h2, s2);
  d2lo = madd_lo(d2lo, h2, r0);
  d2hi = madd_hi(d2hi, h2, r0);

  // d_i = d_ilo + d_ihi * 2^52. d2hi weighs 2^140 = 2^10 * 2^130, and what
  // carries out of 2^130 folds back times 5.
  const u64x8 t = d1lo + (d0hi << 8) + (d0lo >> 44);
  const u64x8 u = d2lo + (d1hi << 8) + (t >> 44);
  const u64x8 c = (u >> 42) + (d2hi << 10);
  h0 = (d0lo & kMask44) + c * 5;
  h1 = (t & kMask44) + (h0 >> 44);
  h2 = u & kMask42;
  h0 &= kMask44;
}

BENTO_IFMA_TARGET inline u64x8 load_lanes(const std::uint64_t* p) {
  u64x8 v;
  std::memcpy(&v, p, 64);
  return v;
}

BENTO_IFMA_TARGET inline std::uint64_t lane_sum(u64x8 v) {
  std::uint64_t sum = 0;
  for (int j = 0; j < 8; ++j) sum += v[j];
  return sum;
}
}  // namespace

BENTO_HOT BENTO_IFMA_TARGET void poly1305_blocks_ifma(Poly1305Limbs& st, const std::uint8_t* m,
                                                      std::size_t ngroups) {
  if (ngroups == 0) return;
  // The running state enters lane 0, whose chain it leads.
  u64x8 h0 = {st.h[0]};
  u64x8 h1 = {st.h[1]};
  u64x8 h2 = {st.h[2]};
  const u64x8 r8_0 = u64x8{} + st.pow[0][0];
  const u64x8 r8_1 = u64x8{} + st.pow[1][0];
  const u64x8 r8_2 = u64x8{} + st.pow[2][0];
  for (; ngroups > 1; --ngroups, m += 128) {
    ifma_group(h0, h1, h2, m, r8_0, r8_1, r8_2, r8_1 * 20, r8_2 * 20);
  }
  const u64x8 p1 = load_lanes(st.pow[1]);
  const u64x8 p2 = load_lanes(st.pow[2]);
  ifma_group(h0, h1, h2, m, load_lanes(st.pow[0]), p1, p2, p1 * 20, p2 * 20);

  // Each lane sum stays under 2^48 per limb; carry it back into the
  // scalar's bounds.
  std::uint64_t s0 = lane_sum(h0), s1 = lane_sum(h1), s2 = lane_sum(h2);
  s1 += s0 >> 44, s0 &= kMask44;
  s2 += s1 >> 44, s1 &= kMask44;
  s0 += (s2 >> 42) * 5, s2 &= kMask42;
  s1 += s0 >> 44, s0 &= kMask44;
  st.h[0] = s0, st.h[1] = s1, st.h[2] = s2;
}
#undef BENTO_IFMA_TARGET
#endif  // BENTO_X86_KERNELS

}  // namespace detail

namespace {
// Runs of eight blocks or more go to the IFMA kernel where the CPU has it;
// null leaves every block to the scalar loop.
using GroupsFn = void (*)(detail::Poly1305Limbs&, const std::uint8_t*, std::size_t);

GroupsFn pick_groups() {
#if BENTO_X86_KERNELS
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512ifma")) {
    return detail::poly1305_blocks_ifma;
  }
#endif
  return nullptr;
}

const GroupsFn kGroups = pick_groups();

/// One Poly1305 MAC: the clamped r and running h, r's powers once a run of
/// eight blocks needs them, and the pad s added at the end.
class Poly1305State {
 public:
  explicit Poly1305State(const Poly1305Key& key)
      : pad0_(load64(key.data() + 16)), pad1_(load64(key.data() + 24)) {
    const std::uint64_t t0 = load64(key.data()), t1 = load64(key.data() + 8);
    st_.r[0] = t0 & 0xffc0fffffff;  // clamped r, split 44/44/42
    st_.r[1] = (t0 >> 44 | t1 << 20) & 0xfffffc0ffff;
    st_.r[2] = t1 >> 24 & 0x00ffffffc0f;
  }

  /// Absorbs `data`. A trailing partial block is zero-padded to 16 bytes
  /// when `zero_pad` (the RFC 8439 §2.8 MAC input), else closed with the
  /// 0x01 marker of a plain Poly1305 message.
  BENTO_HOT void absorb(util::ByteView data, bool zero_pad) {
    const std::size_t full = data.size() / 16;
    blocks(data.data(), full);
    const std::size_t rest = data.size() - 16 * full;
    if (rest == 0) return;
    std::uint8_t last[16] = {};
    std::memcpy(last, data.data() + 16 * full, rest);
    if (!zero_pad) last[rest] = 1;
    detail::poly1305_blocks_scalar(st_, last, 1, zero_pad ? kHibit : 0);
  }

  BENTO_HOT Poly1305Tag finish() const {
    std::uint64_t h0 = st_.h[0], h1 = st_.h[1], h2 = st_.h[2];
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
  /// Absorbs `nblocks` whole 16-byte blocks: runs of eight to the kernel,
  /// which needs r^1 .. r^8 (computed once, for the first such run), and
  /// the rest to the scalar loop.
  BENTO_HOT void blocks(const std::uint8_t* m, std::size_t nblocks) {
    if (kGroups != nullptr && nblocks >= 8) {
      if (!have_powers_) {
        detail::poly1305_powers(st_);
        have_powers_ = true;
      }
      kGroups(st_, m, nblocks / 8);
      m += 128 * (nblocks / 8);
      nblocks %= 8;
    }
    detail::poly1305_blocks_scalar(st_, m, nblocks, kHibit);
  }

  detail::Poly1305Limbs st_;
  bool have_powers_ = false;
  std::uint64_t pad0_, pad1_;
};

/// Keys the one RFC 8439 §2.8 stream of an AEAD call: block 0's first 32
/// bytes are the one-time Poly1305 key, and the stream is left at block 1,
/// where the payload starts.
BENTO_HOT Poly1305Key one_time_key(ChaCha20& stream) {
  std::array<std::uint8_t, 64> block0{};
  stream.process(block0);
  Poly1305Key otk{};
  std::memcpy(otk.data(), block0.data(), otk.size());
  return otk;
}

/// The one RFC 8439 tag routine: Poly1305 under the one-time key over padded
/// AAD, padded ciphertext and the two little-endian lengths.
BENTO_HOT Poly1305Tag chapoly_tag(const Poly1305Key& otk, util::ByteView aad,
                                  util::ByteView ciphertext) {
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
  ChaCha20 stream(key, nonce, 0);
  const Poly1305Key otk = one_time_key(stream);
  stream.process(ciphertext);
  const Poly1305Tag tag = chapoly_tag(otk, aad, ciphertext);
  // bentolint: allow(BL102 grows the caller's buffer, which it reserved)
  out.insert(out.end(), tag.begin(), tag.end());
}

std::optional<util::Bytes> chapoly_open(const ChaChaKey& key,
                                        const ChaChaNonce& nonce,
                                        util::ByteView aad, util::ByteView sealed) {
  if (sealed.size() < kChapolyTagLen) return std::nullopt;
  const util::ByteView ciphertext = sealed.first(sealed.size() - kChapolyTagLen);
  ChaCha20 stream(key, nonce, 0);
  const Poly1305Key otk = one_time_key(stream);
  const Poly1305Tag expect = chapoly_tag(otk, aad, ciphertext);
  if (!util::ct_equal(sealed.last(kChapolyTagLen), expect)) return std::nullopt;
  util::Bytes plaintext(ciphertext.begin(), ciphertext.end());
  stream.process(plaintext);
  return plaintext;
}

ChaChaNonce nonce_from_counter(std::uint64_t counter) {
  ChaChaNonce n{};
  store64(n.data() + 4, counter);
  return n;
}

}  // namespace bento::crypto
