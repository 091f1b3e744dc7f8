// Block kernels behind Sha256, ChaCha20 and Poly1305.
//
// Each primitive picks one kernel once at startup from cpuid (sha256.cpp,
// chacha20.cpp, poly1305.cpp); there is no option to choose one. They are
// declared here only so tests can check every accelerated kernel byte for
// byte against its portable fallback, and benchmarks can time each one —
// the dispatch alone would leave whichever kernel the host skips untested.
// An accelerated kernel may be called only when the CPU has the feature
// named beside it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#if (defined(__GNUC__) || defined(__clang__)) && (defined(__x86_64__) || defined(__i386__))
#define BENTO_X86_KERNELS 1
#endif

#if BENTO_X86_KERNELS && (defined(__clang__) || __GNUC__ >= 12)
// The 16-block ChaCha20 refill stores through __builtin_shufflevector.
#define BENTO_CHACHA_AVX512 1
#endif

namespace bento::crypto::detail {

/// Compresses `nblocks` consecutive 64-byte blocks into `state` (FIPS 180-4).
void sha256_blocks_scalar(std::array<std::uint32_t, 8>& state, const std::uint8_t* blocks,
                          std::size_t nblocks);

/// Poly1305's running state in the radix of its scalar block loop: the
/// accumulator h and the clamped key r as limbs of 44, 44 and 42 bits, and
/// pow[limb][j], limb `limb` of r^(8 - j), once poly1305_powers has run.
struct Poly1305Limbs {
  std::uint64_t h[3] = {};
  std::uint64_t r[3] = {};
  std::uint64_t pow[3][8] = {};
};

/// h = (h + m) * r mod 2^130 - 5 for each of `nblocks` consecutive 16-byte
/// blocks m, each read little-endian plus `hibit` in limb 2 (1 << 40, the
/// 2^128 bit of every block but a marker-closed final one, or 0).
void poly1305_blocks_scalar(Poly1305Limbs& st, const std::uint8_t* m, std::size_t nblocks,
                            std::uint64_t hibit);

/// Fills st.pow with r^1 .. r^8.
void poly1305_powers(Poly1305Limbs& st);

/// Writes the 8 keystream blocks (512 B) for block counters state[12] ..
/// state[12] + 7, wrapping mod 2^32, to `block`. `state` is the 16-word
/// ChaCha20 state of RFC 8439 and is not modified.
void chacha20_refill_portable(const std::uint32_t* state, std::uint8_t* block);

#if BENTO_X86_KERNELS
/// sha256_blocks_scalar on the SHA extensions; needs cpu "sha" (and SSE4.1,
/// which every SHA-capable x86 CPU has).
void sha256_blocks_shani(std::array<std::uint32_t, 8>& state, const std::uint8_t* blocks,
                         std::size_t nblocks);

/// chacha20_refill_portable compiled for AVX2; needs cpu "avx2".
void chacha20_refill_avx2(const std::uint32_t* state, std::uint8_t* block);

/// poly1305_blocks_scalar(st, m, 8 * ngroups, 1 << 40) after
/// poly1305_powers(st): eight lanes each run a Horner chain in r^8 over every
/// eighth block, the last group multiplies lane j by r^(8 - j), and the lane
/// sums land in st.h. Needs cpu "avx512f" and "avx512ifma".
void poly1305_blocks_ifma(Poly1305Limbs& st, const std::uint8_t* m, std::size_t ngroups);
#endif

#if BENTO_CHACHA_AVX512
/// Writes the 16 keystream blocks (1 KiB) for block counters state[12] ..
/// state[12] + 15, wrapping mod 2^32: two chacha20_refill_portable calls in
/// one. Needs cpu "avx512f", "avx512vl" and "avx512bw".
void chacha20_refill_avx512(const std::uint32_t* state, std::uint8_t* block);
#endif

}  // namespace bento::crypto::detail
