// Block kernels behind Sha256 and ChaCha20.
//
// Each class picks one kernel per primitive once at startup from cpuid
// (sha256.cpp, chacha20.cpp); there is no option to choose one. They are
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

namespace bento::crypto::detail {

/// Compresses `nblocks` consecutive 64-byte blocks into `state` (FIPS 180-4).
void sha256_blocks_scalar(std::array<std::uint32_t, 8>& state, const std::uint8_t* blocks,
                          std::size_t nblocks);

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
#endif

}  // namespace bento::crypto::detail
