#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "crypto/chacha20.hpp"
#include "crypto/dh.hpp"
#include "crypto/hmac.hpp"
#include "crypto/kernels.hpp"
#include "crypto/poly1305.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sign.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace bc = bento::crypto;
namespace bu = bento::util;

namespace {
std::string hex_digest(const bc::Digest& d) {
  return bu::to_hex(bu::ByteView(d.data(), d.size()));
}
}  // namespace

// ---- SHA-256: NIST / well-known vectors ----

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex_digest(bc::sha256({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex_digest(bc::sha256(bu::to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hex_digest(bc::sha256(bu::to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  bc::Sha256 h;
  bu::Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex_digest(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  bu::Rng rng(3);
  bu::Bytes data = rng.bytes(10000);
  // Feed in awkward chunk sizes crossing block boundaries.
  bc::Sha256 h;
  std::size_t off = 0;
  std::size_t sizes[] = {1, 63, 64, 65, 127, 128, 500};
  std::size_t i = 0;
  while (off < data.size()) {
    std::size_t n = std::min(sizes[i++ % 7], data.size() - off);
    h.update(bu::ByteView(data.data() + off, n));
    off += n;
  }
  EXPECT_EQ(h.finish(), bc::sha256(data));
}

TEST(Sha256, LengthBoundaryCases) {
  // Lengths around the 55/56/64 padding boundaries must not crash and must
  // be distinct.
  std::set<std::string> seen;
  for (std::size_t n : {54u, 55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    bu::Bytes b(n, 0x41);
    seen.insert(hex_digest(bc::sha256(b)));
  }
  EXPECT_EQ(seen.size(), 10u);
}

// ---- HMAC-SHA256: RFC 4231 vectors ----

TEST(Hmac, Rfc4231Case1) {
  bu::Bytes key(20, 0x0b);
  EXPECT_EQ(hex_digest(bc::hmac_sha256(key, bu::to_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(hex_digest(bc::hmac_sha256(bu::to_bytes("Jefe"),
                                       bu::to_bytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  bu::Bytes key(20, 0xaa);
  bu::Bytes msg(50, 0xdd);
  EXPECT_EQ(hex_digest(bc::hmac_sha256(key, msg)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, LongKeyIsHashed) {
  bu::Bytes key(131, 0xaa);
  EXPECT_EQ(hex_digest(bc::hmac_sha256(
                key, bu::to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// ---- HKDF: RFC 5869 test case 1 ----

TEST(Hkdf, Rfc5869Case1) {
  bu::Bytes ikm(22, 0x0b);
  bu::Bytes salt = bu::from_hex("000102030405060708090a0b0c");
  bu::Bytes info = bu::from_hex("f0f1f2f3f4f5f6f7f8f9");
  bc::Digest prk = bc::hkdf_extract(salt, ikm);
  EXPECT_EQ(hex_digest(prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");
  bu::Bytes okm = bc::hkdf_expand(prk, info, 42);
  EXPECT_EQ(bu::to_hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, DistinctLabelsGiveDistinctKeys) {
  bu::Bytes ikm = bu::to_bytes("input key material");
  auto a = bc::hkdf(ikm, {}, "label-a", 32);
  auto b = bc::hkdf(ikm, {}, "label-b", 32);
  EXPECT_NE(a, b);
  EXPECT_EQ(a.size(), 32u);
}

// ---- ChaCha20: RFC 8439 §2.4.2 ----

TEST(ChaCha20, Rfc8439Vector) {
  bc::ChaChaKey key{};
  for (int i = 0; i < 32; ++i) key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  bc::ChaChaNonce nonce{};  // RFC 8439 §2.4.2: 00..00 4a 00 00 00 00
  nonce[7] = 0x4a;
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  bu::Bytes ct = bc::chacha20_xor(key, nonce, 1, bu::to_bytes(plaintext));
  EXPECT_EQ(bu::to_hex(bu::ByteView(ct.data(), 16)), "6e2e359a2568f98041ba0728dd0d6981");
  EXPECT_EQ(bu::to_hex(bu::ByteView(ct.data() + 112, 2)), "874d");
  // Round-trip.
  bu::Bytes pt = bc::chacha20_xor(key, nonce, 1, ct);
  EXPECT_EQ(bu::to_string(pt), plaintext);
}

TEST(ChaCha20, StreamingMatchesOneShot) {
  bc::ChaChaKey key{};
  key[0] = 7;
  bc::ChaChaNonce nonce{};
  bu::Rng rng(4);
  bu::Bytes data = rng.bytes(1000);

  bu::Bytes oneshot = bc::chacha20_xor(key, nonce, 0, data);

  bc::ChaCha20 c(key, nonce, 0);
  bu::Bytes streamed;
  std::size_t off = 0;
  while (off < data.size()) {
    std::size_t n = std::min<std::size_t>(77, data.size() - off);
    bu::Bytes chunk(data.begin() + static_cast<std::ptrdiff_t>(off),
                    data.begin() + static_cast<std::ptrdiff_t>(off + n));
    c.process(chunk);
    bu::append(streamed, chunk);
    off += n;
  }
  EXPECT_EQ(streamed, oneshot);
}

TEST(ChaCha20, PipePairDecrypts) {
  bc::ChaChaKey key{};
  key[31] = 1;
  bc::ChaChaNonce nonce{};
  bc::ChaCha20 enc(key, nonce), dec(key, nonce);
  for (int i = 0; i < 20; ++i) {
    bu::Bytes msg = bu::to_bytes("cell payload " + std::to_string(i));
    bu::Bytes ct = enc.transform(msg);
    EXPECT_NE(ct, msg);
    EXPECT_EQ(dec.transform(ct), msg);
  }
}

// RFC 8439 §2.3.2: key 00..1f, nonce 00 00 00 09 00 00 00 4a 00 00 00 00,
// counter 1 — the serialized keystream block. XOR-ing zeros recovers the
// raw keystream, so this checks the kernel (not just a round trip).
TEST(ChaCha20, Rfc8439KeystreamBlock) {
  bc::ChaChaKey key{};
  for (int i = 0; i < 32; ++i) key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  bc::ChaChaNonce nonce{};
  nonce[3] = 0x09;
  nonce[7] = 0x4a;
  bu::Bytes zeros(64, 0);
  bc::chacha20_xor_inplace(key, nonce, 1, zeros);
  EXPECT_EQ(bu::to_hex(zeros),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

// RFC 8439 A.1 test vector #1: all-zero key and nonce, counter 0.
TEST(ChaCha20, Rfc8439ZeroKeyKeystream) {
  bu::Bytes zeros(64, 0);
  bc::chacha20_xor_inplace(bc::ChaChaKey{}, bc::ChaChaNonce{}, 0, zeros);
  EXPECT_EQ(bu::to_hex(zeros),
            "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7"
            "da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586");
}

// RFC 8439 §2.4.2: the full 114-byte sunscreen ciphertext, not just a
// prefix — catches any lane-ordering bug in the multi-block kernel.
TEST(ChaCha20, Rfc8439FullCiphertext) {
  bc::ChaChaKey key{};
  for (int i = 0; i < 32; ++i) key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  bc::ChaChaNonce nonce{};
  nonce[7] = 0x4a;
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  bu::Bytes ct = bu::to_bytes(plaintext);
  bc::chacha20_xor_inplace(key, nonce, 1, ct);
  EXPECT_EQ(bu::to_hex(ct),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
}

// The kernel generates keystream several blocks at a time; consuming it in
// odd-sized pieces that straddle both the 64-byte block boundary and the
// multi-block refill boundary must match one-shot output exactly.
TEST(ChaCha20, SplitsAcrossBlockAndRefillBoundaries) {
  bc::ChaChaKey key{};
  key[5] = 0xab;
  bc::ChaChaNonce nonce{};
  bu::Rng rng(99);
  bu::Bytes data = rng.bytes(3000);

  bu::Bytes oneshot = bc::chacha20_xor(key, nonce, 0, data);

  const std::size_t splits[] = {1, 63, 64, 65, 1, 127, 509, 511, 512, 513, 3, 256};
  bc::ChaCha20 c(key, nonce, 0);
  bu::Bytes pieced = data;
  std::size_t off = 0;
  std::size_t si = 0;
  while (off < pieced.size()) {
    const std::size_t n = std::min(splits[si++ % 12], pieced.size() - off);
    c.process(std::span<std::uint8_t>(pieced.data() + off, n));
    off += n;
  }
  EXPECT_EQ(pieced, oneshot);
}

// 1100 bytes cross the 1 KiB refill boundary. Splitting them at every offset
// makes calls of 1-1099 bytes starting at every keystream offset, so every
// partial-vector tail length meets every alignment.
TEST(ChaCha20, ProcessSplitAtEveryOffsetMatchesOneShot) {
  bc::ChaChaKey key{};
  key[31] = 0x5a;
  bc::ChaChaNonce nonce{};
  nonce[3] = 9;
  bu::Rng rng(1100);
  const bu::Bytes data = rng.bytes(1100);
  const bu::Bytes want = bc::chacha20_xor(key, nonce, 7, data);
  for (std::size_t cut = 1; cut < data.size(); ++cut) {
    bc::ChaCha20 c(key, nonce, 7);
    bu::Bytes got = data;
    c.process(std::span<std::uint8_t>(got.data(), cut));
    c.process(std::span<std::uint8_t>(got.data() + cut, got.size() - cut));
    ASSERT_EQ(got, want) << "split at " << cut;
  }
}

TEST(ChaCha20, InPlaceMatchesTransform) {
  bc::ChaChaKey key{};
  key[0] = 1;
  bc::ChaChaNonce nonce{};
  bu::Rng rng(7);
  bu::Bytes data = rng.bytes(509);
  bc::ChaCha20 a(key, nonce), b(key, nonce);
  bu::Bytes copy = data;
  a.process(copy);
  EXPECT_EQ(copy, b.transform(data));
}

// ---- SHA-256: peek_digest ----

TEST(Sha256, PeekDigestMatchesFinish) {
  bu::Rng rng(21);
  // Cover padding both with and without an extra compression block.
  for (std::size_t len : {0u, 1u, 54u, 55u, 56u, 63u, 64u, 65u, 127u, 128u, 509u}) {
    bu::Bytes data = rng.bytes(len);
    bc::Sha256 h;
    h.update(data);
    EXPECT_EQ(h.peek_digest(), bc::sha256(data)) << len;
  }
}

TEST(Sha256, PeekDigestDoesNotDisturbState) {
  bc::Sha256 h;
  h.update(bu::to_bytes("abc"));
  const bc::Digest first = h.peek_digest();
  EXPECT_EQ(h.peek_digest(), first);  // idempotent
  h.update(bu::to_bytes("def"));
  EXPECT_EQ(h.peek_digest(), bc::sha256(bu::to_bytes("abcdef")));
}

// A relay payload split at every offset: update() must hand the buffered
// head, the run of full blocks and the tail to the kernel without loss.
TEST(Sha256, UpdateSplitAtEveryOffsetMatchesOneShot) {
  bu::Rng rng(509);
  const bu::Bytes payload = rng.bytes(509);
  const bc::Digest want = bc::sha256(payload);
  for (std::size_t cut = 0; cut <= payload.size(); ++cut) {
    bc::Sha256 h;
    h.update(bu::ByteView(payload.data(), cut));
    h.update(bu::ByteView(payload.data() + cut, payload.size() - cut));
    ASSERT_EQ(h.finish(), want) << "split at " << cut;
  }
}

// ---- Kernels: each accelerated kernel against its portable fallback ----
//
// Only one kernel per primitive is dispatched on a given host, so the KATs
// above exercise just that one; these run both on the same inputs.

namespace {
// Numbers mod p = 2^130 - 5 as three little-endian 64-bit words, for the
// Poly1305 checks.
using U192 = std::array<std::uint64_t, 3>;

U192 load_le(bu::ByteView b) {
  U192 x{};
  for (std::size_t i = 0; i < b.size(); ++i) {
    x[i / 8] |= static_cast<std::uint64_t>(b[i]) << (8 * (i % 8));
  }
  return x;
}

// a += b mod 2^192; returns the carry out.
bool add_to(U192& a, const U192& b) {
  unsigned __int128 carry = 0;
  for (int i = 0; i < 3; ++i) {
    carry += static_cast<unsigned __int128>(a[i]) + b[i];
    a[i] = static_cast<std::uint64_t>(carry);
    carry >>= 64;
  }
  return carry != 0;
}

// x mod p for x < 2p: subtract p when x + (2^192 - p) carries out.
void reduce(U192& x) {
  const U192 minus_p = {5, 0, ~std::uint64_t{0} << 2};
  U192 t = x;
  if (add_to(t, minus_p)) x = t;
}

// The Poly1305 accumulator's value mod p, whatever carried form its three
// 44/44/42-bit limbs are in.
[[maybe_unused]] U192 h_mod_p(const bc::detail::Poly1305Limbs& st) {
  U192 x = {st.h[0], 0, 0};
  add_to(x, {st.h[1] << 44, st.h[1] >> 20, 0});
  add_to(x, {0, st.h[2] << 24, st.h[2] >> 40});
  for (int fold = 0; fold < 2; ++fold) {  // 2^130 = 5 (mod p)
    const std::uint64_t top = x[2] >> 2;
    x[2] &= 3;
    add_to(x, {top * 5, 0, 0});
  }
  reduce(x);
  return x;
}
}  // namespace

TEST(CryptoKernels, Sha256ShaNiMatchesScalar) {
#if BENTO_X86_KERNELS
  if (!__builtin_cpu_supports("sha") || !__builtin_cpu_supports("sse4.1")) {
    GTEST_SKIP() << "CPU lacks the SHA extensions: only the scalar kernel can run";
  }
  bu::Rng rng(256);
  const bu::Bytes buf = rng.bytes(64 * 16 + 63);
  for (std::size_t start = 0; start < 64; ++start) {
    for (std::size_t nblocks = 1; nblocks <= 16; ++nblocks) {
      std::array<std::uint32_t, 8> scalar{};
      for (auto& w : scalar) w = static_cast<std::uint32_t>(rng.next_u64());
      std::array<std::uint32_t, 8> shani = scalar;
      bc::detail::sha256_blocks_scalar(scalar, buf.data() + start, nblocks);
      bc::detail::sha256_blocks_shani(shani, buf.data() + start, nblocks);
      ASSERT_EQ(shani, scalar) << "start " << start << ", " << nblocks << " blocks";
    }
  }
#else
  GTEST_SKIP() << "the SHA-NI kernel exists only on x86";
#endif
}

TEST(CryptoKernels, ChaCha20Avx2MatchesPortable) {
#if BENTO_X86_KERNELS
  if (!__builtin_cpu_supports("avx2")) {
    GTEST_SKIP() << "CPU lacks AVX2: only the portable refill can run";
  }
  bu::Rng rng(8439);
  for (int trial = 0; trial < 512; ++trial) {
    std::array<std::uint32_t, 16> state{};
    for (auto& w : state) w = static_cast<std::uint32_t>(rng.next_u64());
    // Every other state starts within 8 of 2^32, so some lanes' counters wrap.
    if (trial % 2 == 0) state[12] = 0xffffffffu - static_cast<std::uint32_t>(rng.uniform(0, 7));
    std::array<std::uint8_t, 512> portable{};
    std::array<std::uint8_t, 512> avx2{};
    bc::detail::chacha20_refill_portable(state.data(), portable.data());
    bc::detail::chacha20_refill_avx2(state.data(), avx2.data());
    ASSERT_EQ(avx2, portable) << "trial " << trial << ", counter " << state[12];
  }
#else
  GTEST_SKIP() << "the AVX2 refill exists only on x86";
#endif
}

TEST(CryptoKernels, ChaCha20Avx512MatchesPortable) {
#if BENTO_CHACHA_AVX512
  if (!__builtin_cpu_supports("avx512f") || !__builtin_cpu_supports("avx512vl") ||
      !__builtin_cpu_supports("avx512bw")) {
    GTEST_SKIP() << "CPU lacks AVX-512F/VL/BW: the 16-block refill cannot run";
  }
  bu::Rng rng(16);
  for (int trial = 0; trial < 512; ++trial) {
    std::array<std::uint32_t, 16> state{};
    for (auto& w : state) w = static_cast<std::uint32_t>(rng.next_u64());
    // Every other state starts within 16 of 2^32, so some lanes' counters wrap.
    if (trial % 2 == 0) state[12] = 0xffffffffu - static_cast<std::uint32_t>(rng.uniform(0, 15));
    std::array<std::uint8_t, 1024> portable{};
    std::array<std::uint8_t, 1024> avx512{};
    bc::detail::chacha20_refill_portable(state.data(), portable.data());
    std::array<std::uint32_t, 16> next = state;
    next[12] += 8;
    bc::detail::chacha20_refill_portable(next.data(), portable.data() + 512);
    bc::detail::chacha20_refill_avx512(state.data(), avx512.data());
    ASSERT_EQ(avx512, portable) << "trial " << trial << ", counter " << state[12];
  }
#else
  GTEST_SKIP() << "the AVX-512 refill needs x86 and GCC >= 12 or Clang";
#endif
}

// The IFMA kernel takes each run of eight blocks, the scalar loop the rest
// of the MAC (the blocks after the last whole group and the final partial
// block): both orders must reach the same h mod p from the same state.
TEST(CryptoKernels, Poly1305IfmaMatchesScalar) {
#if BENTO_X86_KERNELS
  if (!__builtin_cpu_supports("avx512f") || !__builtin_cpu_supports("avx512ifma")) {
    GTEST_SKIP() << "CPU lacks AVX-512F/IFMA: only the scalar block loop can run";
  }
  constexpr std::uint64_t kMask44 = (std::uint64_t{1} << 44) - 1;
  constexpr std::uint64_t kMask42 = (std::uint64_t{1} << 42) - 1;
  constexpr std::uint64_t kHibit = std::uint64_t{1} << 40;
  bu::Rng rng(1305);
  // Every length up to 17 blocks (so 7 to 17 blocks, either side of one and
  // two groups), then random lengths up to 70,000 bytes.
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 272; ++n) lengths.push_back(n);
  for (int i = 0; i < 200; ++i) lengths.push_back(rng.uniform(273, 70000));
  const bu::Bytes random_msg = rng.bytes(70000);
  const bu::Bytes all_ff(70000, 0xff);
  for (const std::size_t len : lengths) {
    // Bit 0 saturates r, the starting state and every message limb; bit 1
    // closes the final partial block with the 0x01 marker (poly1305) rather
    // than zero padding (chapoly_*).
    for (int variant = 0; variant < 4; ++variant) {
      const bool saturate = (variant & 1) != 0;
      const bool marker = (variant & 2) != 0;
      const std::uint8_t* msg = saturate ? all_ff.data() : random_msg.data();
      bc::detail::Poly1305Limbs start;
      const std::uint64_t clamp[3] = {0xffc0fffffff, 0xfffffc0ffff, 0x00ffffffc0f};
      const std::uint64_t limb_max[3] = {kMask44, kMask44, kMask42};
      for (int i = 0; i < 3; ++i) {
        start.r[i] = saturate ? clamp[i] : rng.next_u64() & clamp[i];
        start.h[i] = saturate ? limb_max[i] : rng.next_u64() & limb_max[i];
      }
      const std::size_t nblocks = len / 16;
      const std::size_t rest = len % 16;
      std::array<std::uint8_t, 16> last{};
      std::copy(msg + 16 * nblocks, msg + len, last.begin());
      if (marker) last[rest] = 1;
      auto close = [&](bc::detail::Poly1305Limbs& st) {
        if (rest > 0) bc::detail::poly1305_blocks_scalar(st, last.data(), 1, marker ? 0 : kHibit);
        return h_mod_p(st);
      };

      bc::detail::Poly1305Limbs scalar = start;
      bc::detail::poly1305_blocks_scalar(scalar, msg, nblocks, kHibit);
      bc::detail::Poly1305Limbs ifma = start;
      bc::detail::poly1305_powers(ifma);
      bc::detail::poly1305_blocks_ifma(ifma, msg, nblocks / 8);
      bc::detail::poly1305_blocks_scalar(ifma, msg + 128 * (nblocks / 8), nblocks % 8,
                                         kHibit);
      ASSERT_EQ(close(ifma), close(scalar)) << "length " << len << ", variant " << variant;
    }
  }
#else
  GTEST_SKIP() << "the IFMA kernel exists only on x86";
#endif
}

// ---- AEAD: the API of the one AEAD, RFC 8439 chapoly_seal/chapoly_open ----

namespace {
bc::ChaChaKey random_key(bu::Rng& rng) {
  bc::ChaChaKey key{};
  const bu::Bytes b = rng.bytes(key.size());
  std::copy(b.begin(), b.end(), key.begin());
  return key;
}
}  // namespace

TEST(Aead, SealOpenRoundTrip) {
  bu::Rng rng(10);
  const bc::ChaChaKey key = random_key(rng);
  auto nonce = bc::nonce_from_counter(1);
  bu::Bytes aad = bu::to_bytes("header");
  bu::Bytes pt = bu::to_bytes("attack at dawn");
  bu::Bytes sealed = bc::chapoly_seal(key, nonce, aad, pt);
  EXPECT_EQ(sealed.size(), pt.size() + bc::kChapolyTagLen);
  auto opened = bc::chapoly_open(key, nonce, aad, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, pt);
}

TEST(Aead, TamperedCiphertextFails) {
  bu::Rng rng(11);
  const bc::ChaChaKey key = random_key(rng);
  auto nonce = bc::nonce_from_counter(2);
  bu::Bytes sealed = bc::chapoly_seal(key, nonce, {}, bu::to_bytes("data"));
  sealed[0] ^= 1;
  EXPECT_FALSE(bc::chapoly_open(key, nonce, {}, sealed).has_value());
}

TEST(Aead, TamperedTagFails) {
  bu::Rng rng(12);
  const bc::ChaChaKey key = random_key(rng);
  auto nonce = bc::nonce_from_counter(3);
  bu::Bytes sealed = bc::chapoly_seal(key, nonce, {}, bu::to_bytes("data"));
  sealed.back() ^= 1;
  EXPECT_FALSE(bc::chapoly_open(key, nonce, {}, sealed).has_value());
}

TEST(Aead, WrongAadFails) {
  bu::Rng rng(13);
  const bc::ChaChaKey key = random_key(rng);
  auto nonce = bc::nonce_from_counter(4);
  bu::Bytes sealed =
      bc::chapoly_seal(key, nonce, bu::to_bytes("aad1"), bu::to_bytes("data"));
  EXPECT_FALSE(bc::chapoly_open(key, nonce, bu::to_bytes("aad2"), sealed).has_value());
}

TEST(Aead, WrongNonceFails) {
  bu::Rng rng(14);
  const bc::ChaChaKey key = random_key(rng);
  bu::Bytes sealed =
      bc::chapoly_seal(key, bc::nonce_from_counter(5), {}, bu::to_bytes("data"));
  EXPECT_FALSE(bc::chapoly_open(key, bc::nonce_from_counter(6), {}, sealed).has_value());
}

TEST(Aead, TooShortInputFails) {
  bu::Rng rng(15);
  const bc::ChaChaKey key = random_key(rng);
  bu::Bytes tiny(bc::kChapolyTagLen - 1, 0);
  EXPECT_FALSE(bc::chapoly_open(key, bc::nonce_from_counter(0), {}, tiny).has_value());
}

TEST(Aead, OneFlippedByteInAnyEightBlockGroupFails) {
  // A 64 KiB body is 512 groups of eight blocks, the IFMA kernel's unit.
  bu::Rng rng(17);
  const bc::ChaChaKey key = random_key(rng);
  const auto nonce = bc::nonce_from_counter(8);
  const bu::Bytes aad = bu::to_bytes("fsprotect");
  bu::Bytes sealed = bc::chapoly_seal(key, nonce, aad, rng.bytes(64 * 1024));
  ASSERT_TRUE(bc::chapoly_open(key, nonce, aad, sealed).has_value());
  for (std::size_t group = 0; group < 512; ++group) {
    const std::size_t at = 128 * group + rng.uniform(0, 127);
    const auto flip = static_cast<std::uint8_t>(rng.uniform(1, 255));
    sealed[at] ^= flip;
    ASSERT_FALSE(bc::chapoly_open(key, nonce, aad, sealed).has_value()) << "byte " << at;
    sealed[at] ^= flip;
  }
}

TEST(Aead, EmptyPlaintextWorks) {
  bu::Rng rng(16);
  const bc::ChaChaKey key = random_key(rng);
  auto nonce = bc::nonce_from_counter(7);
  bu::Bytes sealed = bc::chapoly_seal(key, nonce, bu::to_bytes("x"), {});
  auto opened = bc::chapoly_open(key, nonce, bu::to_bytes("x"), sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_TRUE(opened->empty());
}

// ---- DH ----

TEST(Dh, SharedSecretAgrees) {
  bu::Rng rng(20);
  auto a = bc::DhKeyPair::generate(rng);
  auto b = bc::DhKeyPair::generate(rng);
  EXPECT_EQ(bc::dh_shared(a, b.public_value), bc::dh_shared(b, a.public_value));
}

TEST(Dh, DistinctPairsDistinctSecrets) {
  bu::Rng rng(21);
  auto a = bc::DhKeyPair::generate(rng);
  auto b = bc::DhKeyPair::generate(rng);
  auto c = bc::DhKeyPair::generate(rng);
  EXPECT_NE(bc::dh_shared(a, b.public_value), bc::dh_shared(a, c.public_value));
}

TEST(Dh, RejectsDegeneratePublic) {
  bu::Rng rng(22);
  auto a = bc::DhKeyPair::generate(rng);
  EXPECT_THROW(bc::dh_shared(a, 0), std::invalid_argument);
  EXPECT_THROW(bc::dh_shared(a, 1), std::invalid_argument);
  EXPECT_THROW(bc::dh_shared(a, bc::group_prime()), std::invalid_argument);
}

TEST(Dh, GpBytesRoundTrip) {
  bu::Rng rng(23);
  for (int i = 0; i < 20; ++i) {
    bc::Gp v = (static_cast<bc::Gp>(rng.next_u64()) << 64 | rng.next_u64()) %
               bc::group_prime();
    EXPECT_EQ(bc::gp_from_bytes(bc::gp_to_bytes(v)), v);
  }
  EXPECT_THROW(bc::gp_from_bytes(bu::Bytes(5)), std::invalid_argument);
}

TEST(Dh, ModmulMatchesSmallCases) {
  EXPECT_EQ(bc::modmul(7, 9, 11), (7 * 9) % 11);
  EXPECT_EQ(bc::modpow(3, 4, 100), 81u);
  EXPECT_EQ(bc::modpow(2, 10, 1000), 24u);
  // Fermat: a^(p-1) = 1 mod p for prime p.
  const bc::Gp p = bc::group_prime();
  EXPECT_EQ(bc::modpow(12345, p - 1, p), 1u);
}

// ---- Schnorr signatures ----

TEST(Sign, ValidSignatureVerifies) {
  bu::Rng rng(30);
  auto key = bc::SigningKey::generate(rng);
  bu::Bytes msg = bu::to_bytes("consensus document v1");
  auto sig = key.sign(msg);
  EXPECT_TRUE(bc::verify(key.public_key(), msg, sig));
}

TEST(Sign, WrongMessageFails) {
  bu::Rng rng(31);
  auto key = bc::SigningKey::generate(rng);
  auto sig = key.sign(bu::to_bytes("message A"));
  EXPECT_FALSE(bc::verify(key.public_key(), bu::to_bytes("message B"), sig));
}

TEST(Sign, WrongKeyFails) {
  bu::Rng rng(32);
  auto key1 = bc::SigningKey::generate(rng);
  auto key2 = bc::SigningKey::generate(rng);
  bu::Bytes msg = bu::to_bytes("msg");
  EXPECT_FALSE(bc::verify(key2.public_key(), msg, key1.sign(msg)));
}

TEST(Sign, TamperedSignatureFails) {
  bu::Rng rng(33);
  auto key = bc::SigningKey::generate(rng);
  bu::Bytes msg = bu::to_bytes("msg");
  auto sig = key.sign(msg);
  auto bad = sig;
  bad.s ^= 1;
  EXPECT_FALSE(bc::verify(key.public_key(), msg, bad));
  bad = sig;
  bad.r ^= 1;
  EXPECT_FALSE(bc::verify(key.public_key(), msg, bad));
}

TEST(Sign, SignatureSerializationRoundTrip) {
  bu::Rng rng(34);
  auto key = bc::SigningKey::generate(rng);
  auto sig = key.sign(bu::to_bytes("hello"));
  auto round = bc::Signature::from_bytes(sig.to_bytes());
  EXPECT_EQ(round.r, sig.r);
  EXPECT_EQ(round.s, sig.s);
  EXPECT_TRUE(bc::verify(key.public_key(), bu::to_bytes("hello"), round));
}

TEST(Sign, DeterministicNonce) {
  bu::Rng rng(35);
  auto key = bc::SigningKey::generate(rng);
  auto s1 = key.sign(bu::to_bytes("m"));
  auto s2 = key.sign(bu::to_bytes("m"));
  EXPECT_EQ(s1.r, s2.r);
  EXPECT_EQ(s1.s, s2.s);
}

TEST(Sign, FingerprintStableAndShort) {
  bu::Rng rng(36);
  auto key = bc::SigningKey::generate(rng);
  auto fp = bc::key_fingerprint(key.public_key());
  EXPECT_EQ(fp.size(), 16u);
  EXPECT_EQ(fp, bc::key_fingerprint(key.public_key()));
}

// Property sweep: sign/verify across many keys and messages.
class SignSweep : public ::testing::TestWithParam<int> {};

TEST_P(SignSweep, RoundTrip) {
  bu::Rng rng(static_cast<std::uint64_t>(GetParam()) + 100);
  auto key = bc::SigningKey::generate(rng);
  bu::Bytes msg = rng.bytes(static_cast<std::size_t>(GetParam()) * 13 + 1);
  auto sig = key.sign(msg);
  EXPECT_TRUE(bc::verify(key.public_key(), msg, sig));
  msg[0] ^= 0xff;
  EXPECT_FALSE(bc::verify(key.public_key(), msg, sig));
}

INSTANTIATE_TEST_SUITE_P(Keys, SignSweep, ::testing::Range(0, 10));

// ---- Poly1305 / ChaCha20-Poly1305: RFC 8439 vectors ----

TEST(Poly1305, Rfc8439MacVector) {
  // RFC 8439 §2.5.2.
  bc::Poly1305Key key{};
  auto key_bytes = bu::from_hex(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  std::copy(key_bytes.begin(), key_bytes.end(), key.begin());
  auto tag = bc::poly1305(key, bu::to_bytes("Cryptographic Forum Research Group"));
  EXPECT_EQ(bu::to_hex(bu::ByteView(tag.data(), tag.size())),
            "a8061dc1305136c6c22b8baf0c0127a9");
}

TEST(Poly1305, Rfc8439AeadVector) {
  // RFC 8439 §2.8.2.
  bc::ChaChaKey key{};
  auto key_bytes = bu::from_hex(
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  std::copy(key_bytes.begin(), key_bytes.end(), key.begin());
  bc::ChaChaNonce nonce{};
  auto nonce_bytes = bu::from_hex("070000004041424344454647");
  std::copy(nonce_bytes.begin(), nonce_bytes.end(), nonce.begin());
  const bu::Bytes aad = bu::from_hex("50515253c0c1c2c3c4c5c6c7");
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";

  bu::Bytes sealed = bc::chapoly_seal(key, nonce, aad, bu::to_bytes(plaintext));
  ASSERT_EQ(sealed.size(), plaintext.size() + 16);
  EXPECT_EQ(bu::to_hex(bu::ByteView(sealed.data(), 16)),
            "d31a8d34648e60db7b86afbc53ef7ec2");
  EXPECT_EQ(bu::to_hex(bu::ByteView(sealed.data() + sealed.size() - 16, 16)),
            "1ae10b594f09e26a7e902ecbd0600691");

  auto opened = bc::chapoly_open(key, nonce, aad, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(bu::to_string(*opened), plaintext);
}

TEST(Poly1305, ChapolyRejectsTampering) {
  bu::Rng rng(40);
  bc::ChaChaKey key{};
  auto kb = rng.bytes(32);
  std::copy(kb.begin(), kb.end(), key.begin());
  auto nonce = bc::nonce_from_counter(9);
  bu::Bytes sealed = bc::chapoly_seal(key, nonce, bu::to_bytes("aad"),
                                      bu::to_bytes("secret"));
  auto bad = sealed;
  bad[0] ^= 1;
  EXPECT_FALSE(bc::chapoly_open(key, nonce, bu::to_bytes("aad"), bad).has_value());
  bad = sealed;
  bad.back() ^= 1;
  EXPECT_FALSE(bc::chapoly_open(key, nonce, bu::to_bytes("aad"), bad).has_value());
  EXPECT_FALSE(bc::chapoly_open(key, nonce, bu::to_bytes("axd"), sealed).has_value());
  EXPECT_FALSE(bc::chapoly_open(key, bc::nonce_from_counter(8), bu::to_bytes("aad"),
                                sealed)
                   .has_value());
  EXPECT_FALSE(bc::chapoly_open(key, nonce, bu::to_bytes("aad"), bu::Bytes(10))
                   .has_value());
}

TEST(Poly1305, EmptyAndBlockBoundaryMessages) {
  bu::Rng rng(41);
  bc::Poly1305Key key{};
  auto kb = rng.bytes(32);
  std::copy(kb.begin(), kb.end(), key.begin());
  std::set<std::string> tags;
  for (std::size_t n : {0u, 1u, 15u, 16u, 17u, 31u, 32u, 33u, 100u}) {
    auto tag = bc::poly1305(key, bu::Bytes(n, 0x61));
    tags.insert(bu::to_hex(bu::ByteView(tag.data(), tag.size())));
  }
  EXPECT_EQ(tags.size(), 9u);  // all distinct
}

TEST(Poly1305, FinalReductionVectors) {
  // r = 1 makes h the plain sum of the blocks (each + 2^128), so these
  // exercise the final reduction mod p = 2^130 - 5 and the dropped carry
  // out of + s. Checked by hand.
  bc::Poly1305Key key{};
  key[0] = 1;
  auto hex = [](const bc::Poly1305Tag& t) {
    return bu::to_hex(bu::ByteView(t.data(), t.size()));
  };
  const bu::Bytes all_ff(32, 0xff);
  // h = 2 * (2^129 - 1) = 2^130 - 2 = p + 3.
  EXPECT_EQ(hex(bc::poly1305(key, all_ff)), "03000000000000000000000000000000");
  // s = 2^128 - 1: (3 + s) mod 2^128 = 2.
  std::fill(key.begin() + 16, key.end(), 0xff);
  EXPECT_EQ(hex(bc::poly1305(key, all_ff)), "02000000000000000000000000000000");
  // (2^129 - 1) + (2^129 - 4) = p exactly, so h reduces to 0.
  std::fill(key.begin() + 16, key.end(), 0);
  bu::Bytes to_p(32, 0xff);
  to_p[16] = 0xfc;
  EXPECT_EQ(hex(bc::poly1305(key, to_p)), "00000000000000000000000000000000");
}

TEST(Poly1305, ChapolyTagMatchesAssembledMacInput) {
  // chapoly_seal reads padded AAD, padded ciphertext and the two lengths
  // where they sit; its tag must equal one-shot Poly1305 over the RFC 8439
  // §2.8 MAC input assembled byte by byte, on both sides of every 16-byte
  // boundary up to 1100 (empty included) for AAD and plaintext alike.
  std::vector<std::size_t> lengths = {0};
  for (std::size_t b = 16; b <= 1100; b += 16) {
    lengths.insert(lengths.end(), {b - 1, b, b + 1});
  }
  lengths.push_back(1100);
  bu::Rng rng(43);
  const bc::ChaChaKey key = random_key(rng);
  const bu::Bytes aad_pool = rng.bytes(1100);
  const bu::Bytes pt_pool = rng.bytes(1100);
  auto le64 = [](bu::Bytes& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  std::uint64_t counter = 0;
  for (const std::size_t aad_len : lengths) {
    for (const std::size_t pt_len : lengths) {
      const bc::ChaChaNonce nonce = bc::nonce_from_counter(++counter);
      const bu::ByteView aad(aad_pool.data(), aad_len);
      const bu::Bytes sealed =
          bc::chapoly_seal(key, nonce, aad, bu::ByteView(pt_pool.data(), pt_len));
      const bu::ByteView ciphertext(sealed.data(), pt_len);

      bu::Bytes mac_input(aad.begin(), aad.end());
      mac_input.resize((mac_input.size() + 15) / 16 * 16, 0);
      mac_input.insert(mac_input.end(), ciphertext.begin(), ciphertext.end());
      mac_input.resize((mac_input.size() + 15) / 16 * 16, 0);
      le64(mac_input, aad_len);
      le64(mac_input, pt_len);
      const bu::Bytes block0 = bc::chacha20_xor(key, nonce, 0, bu::Bytes(32, 0));
      bc::Poly1305Key otk{};
      std::copy(block0.begin(), block0.end(), otk.begin());
      const bc::Poly1305Tag want = bc::poly1305(otk, mac_input);
      ASSERT_TRUE(std::equal(want.begin(), want.end(), sealed.end() - 16))
          << "aad " << aad_len << ", plaintext " << pt_len;
    }
  }
}

namespace {
// Slow Poly1305 reference for the cross-check: schoolbook bit-serial
// multiply mod p = 2^130 - 5 on three 64-bit words (U192 above), written
// for obviousness rather than speed.
bc::Poly1305Tag slow_poly1305(const bc::Poly1305Key& key, bu::ByteView message) {
  std::array<std::uint8_t, 16> r_bytes{};
  std::copy(key.begin(), key.begin() + 16, r_bytes.begin());
  for (const int i : {3, 7, 11, 15}) r_bytes[i] &= 15;
  for (const int i : {4, 8, 12}) r_bytes[i] &= 252;
  const U192 r = load_le(r_bytes);
  U192 h{};
  for (std::size_t off = 0; off < message.size(); off += 16) {
    const std::size_t n = std::min<std::size_t>(16, message.size() - off);
    U192 m = load_le(message.subspan(off, n));
    m[n / 8] |= std::uint64_t{1} << (8 * (n % 8));
    add_to(h, m);  // h < p and m < 2^129 < p
    reduce(h);
    U192 acc{};
    for (int bit = 127; bit >= 0; --bit) {
      add_to(acc, U192(acc));
      reduce(acc);
      if ((r[bit / 64] >> (bit % 64)) & 1) {
        add_to(acc, h);
        reduce(acc);
      }
    }
    h = acc;
  }
  add_to(h, load_le(bu::ByteView(key.data() + 16, 16)));
  bc::Poly1305Tag tag{};
  for (int i = 0; i < 16; ++i) {
    tag[i] = static_cast<std::uint8_t>(h[i / 8] >> (8 * (i % 8)));
  }
  return tag;
}
}  // namespace

TEST(Poly1305, MatchesSlowReferenceOnRandomInputs) {
  bu::Rng rng(44);
  // The last 20 trials run to a few KiB, through many groups of eight blocks.
  for (int trial = 0; trial < 2020; ++trial) {
    bc::Poly1305Key key{};
    const bu::Bytes kb = rng.bytes(32);
    std::copy(kb.begin(), kb.end(), key.begin());
    bu::Bytes message = rng.bytes(trial < 2000 ? rng.uniform(0, 300) : rng.uniform(1024, 4096));
    // Three trials in four saturate r (before clamping), the message or
    // both, so limb carries run at their bounds.
    if (trial % 4 == 1 || trial % 4 == 3) std::fill(key.begin(), key.begin() + 16, 0xff);
    if (trial % 4 >= 2) std::fill(message.begin(), message.end(), 0xff);
    ASSERT_EQ(bc::poly1305(key, message), slow_poly1305(key, message))
        << "trial " << trial << ", length " << message.size();
  }
}
