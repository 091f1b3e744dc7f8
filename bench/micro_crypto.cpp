// Microbenchmarks: the from-scratch crypto substrate.
#include <benchmark/benchmark.h>

#include "crypto/chacha20.hpp"
#include "crypto/hmac.hpp"
#include "crypto/poly1305.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sign.hpp"
#include "tor/ntor.hpp"
#include "util/rng.hpp"

namespace bc = bento::crypto;
namespace bt = bento::tor;
namespace bu = bento::util;

static void BM_Sha256(benchmark::State& state) {
  bu::Rng rng(1);
  const bu::Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bc::sha256(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(512)->Arg(8192);

static void BM_ChaCha20(benchmark::State& state) {
  bu::Rng rng(2);
  bc::ChaChaKey key{};
  bu::Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  bc::ChaCha20 cipher(key, bc::ChaChaNonce{});
  for (auto _ : state) {
    cipher.process(data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ChaCha20)->Arg(509)->Arg(8192);

static void BM_ChapolySeal(benchmark::State& state) {
  bu::Rng rng(3);
  bc::ChaChaKey key{};
  const bu::Bytes key_bytes = rng.bytes(key.size());
  std::copy(key_bytes.begin(), key_bytes.end(), key.begin());
  const bu::Bytes payload = rng.bytes(static_cast<std::size_t>(state.range(0)));
  std::uint64_t counter = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bc::chapoly_seal(key, bc::nonce_from_counter(++counter), {}, payload));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ChapolySeal)->Arg(498)->Arg(32768);

static void BM_Poly1305(benchmark::State& state) {
  bu::Rng rng(8);
  bc::Poly1305Key key{};
  const bu::Bytes key_bytes = rng.bytes(key.size());
  std::copy(key_bytes.begin(), key_bytes.end(), key.begin());
  const bu::Bytes message = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bc::poly1305(key, message));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Poly1305)->Arg(32768);

static void BM_HmacSha256(benchmark::State& state) {
  bu::Rng rng(4);
  const bu::Bytes key = rng.bytes(32);
  const bu::Bytes message = rng.bytes(509);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bc::hmac_sha256(key, message));
  }
}
BENCHMARK(BM_HmacSha256);

static void BM_SchnorrSign(benchmark::State& state) {
  bu::Rng rng(5);
  auto key = bc::SigningKey::generate(rng);
  const bu::Bytes message = rng.bytes(128);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.sign(message));
  }
}
BENCHMARK(BM_SchnorrSign);

static void BM_SchnorrVerify(benchmark::State& state) {
  bu::Rng rng(6);
  auto key = bc::SigningKey::generate(rng);
  const bu::Bytes message = rng.bytes(128);
  const auto sig = key.sign(message);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bc::verify(key.public_key(), message, sig));
  }
}
BENCHMARK(BM_SchnorrVerify);

static void BM_NtorFullHandshake(benchmark::State& state) {
  bu::Rng rng(7);
  auto onion = bc::DhKeyPair::generate(rng);
  auto identity = bc::SigningKey::generate(rng);
  for (auto _ : state) {
    bt::NtorClientState client_state;
    const bu::Bytes skin =
        bt::ntor_client_create(client_state, onion.public_value,
                               identity.public_key(), rng);
    auto reply = bt::ntor_server_respond(onion, identity.public_key(), skin, rng);
    benchmark::DoNotOptimize(
        bt::ntor_client_finish(client_state, reply.created_payload));
  }
}
BENCHMARK(BM_NtorFullHandshake);

BENCHMARK_MAIN();
