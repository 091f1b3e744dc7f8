#include "host_speed.hpp"

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

namespace {

constexpr std::uint32_t kRound[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

void compress(std::uint32_t* state, const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = static_cast<std::uint32_t>(block[4 * i]) << 24 |
           static_cast<std::uint32_t>(block[4 * i + 1]) << 16 |
           static_cast<std::uint32_t>(block[4 * i + 2]) << 8 | block[4 * i + 3];
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t t1 =
        h + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) + ((e & f) ^ (~e & g)) + kRound[i] + w[i];
    const std::uint32_t t2 =
        (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) + ((a & b) ^ (a & c) ^ (b & c));
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

// Folds results into a global the optimizer cannot see through.
volatile std::uint64_t g_sink = 0;

using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

// Each part's time on a quiet core of the host the constants were taken on
// (a 2.1 GHz Intel Xeon, 4 vCPUs): the 5th percentile of its times between
// slices of the four workloads, where it runs with the caches and branch
// predictors the workload left behind.
constexpr double kShaQuietUs = 66.0;
constexpr double kModmulQuietUs = 57.0;
constexpr double kAllocQuietUs = 61.0;

double sha_us() {
  static std::uint8_t input[16 * 1024] = {};
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  const auto t0 = Clock::now();
  for (std::size_t off = 0; off < sizeof(input); off += 64) compress(state, input + off);
  const double us = us_since(t0);
  g_sink = g_sink + state[0];
  return us;
}

using U128 = unsigned __int128;

U128 modmul(U128 a, U128 b, U128 mod) {
  U128 result = 0;
  while (b > 0) {
    if (b & 1) {
      result += a;
      if (result >= mod) result -= mod;
    }
    a <<= 1;
    if (a >= mod) a -= mod;
    b >>= 1;
  }
  return result;
}

double modmul_us() {
  const U128 p = (U128{1} << 127) - 1;
  U128 x = (U128{0x0123456789abcdefULL} << 64) | 0xfedcba9876543210ULL;
  U128 y = (U128{0x1f2e3d4c5b6a7988ULL} << 64) | 0x1122334455667788ULL;
  const auto t0 = Clock::now();
  for (int i = 0; i < 48; ++i) {
    x = modmul(x, y, p);
    y ^= x;
  }
  const double us = us_since(t0);
  g_sink = g_sink + static_cast<std::uint64_t>(x);
  return us;
}

double alloc_us() {
  const auto t0 = Clock::now();
  std::map<int, std::string> m;
  for (int i = 0; i < 400; ++i) m[(i * 7919) % 401] = std::string(40, 'x');
  for (int i = 0; i < 400; i += 2) m.erase((i * 7919) % 401);
  const double us = us_since(t0);
  g_sink = g_sink + m.size();
  return us;
}

}  // namespace

double speed_factor() {
  return (sha_us() / kShaQuietUs + modmul_us() / kModmulQuietUs + alloc_us() / kAllocQuietUs) /
         3;
}

}  // namespace perfbench
