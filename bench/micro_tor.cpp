// Microbenchmarks: Tor substrate hot paths — onion layering, cell codec,
// circuit construction over the simulated network, stream goodput.
#include <benchmark/benchmark.h>

#include "tor/cell.hpp"
#include "tor/relaycrypto.hpp"
#include "tor/testbed.hpp"
#include "util/rng.hpp"

namespace bt = bento::tor;
namespace bu = bento::util;

static void BM_CellPackUnpack(benchmark::State& state) {
  bt::Cell cell;
  cell.circ_id = 42;
  cell.command = bt::CellCommand::Relay;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bt::Cell::unpack(cell.pack()));
  }
}
BENCHMARK(BM_CellPackUnpack);

static void BM_OnionLayer3Hop(benchmark::State& state) {
  bu::Rng rng(1);
  std::vector<bt::LayerCrypto> origin_layers, relay_layers;
  for (int i = 0; i < 3; ++i) {
    auto keys = bt::LayerKeys::derive(rng.bytes(32), "bench");
    origin_layers.emplace_back(keys);
    relay_layers.emplace_back(keys);
  }
  const bu::Bytes data = rng.bytes(bt::kRelayDataMax);
  bt::RelayCell rc;
  rc.relay_cmd = bt::RelayCommand::Data;
  rc.stream_id = 1;
  rc.data = data;

  for (auto _ : state) {
    auto payload = rc.pack();
    origin_layers[2].seal_forward(payload);
    for (int i = 2; i >= 0; --i) origin_layers[static_cast<std::size_t>(i)].crypt_forward(payload);
    for (int i = 0; i < 3; ++i) {
      relay_layers[static_cast<std::size_t>(i)].crypt_forward(payload);
      benchmark::DoNotOptimize(
          relay_layers[static_cast<std::size_t>(i)].check_forward(payload));
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          bt::kCellPayloadLen);
}
BENCHMARK(BM_OnionLayer3Hop);

static void BM_CircuitBuild(benchmark::State& state) {
  // Full 3-hop circuit construction, including simulated network delivery.
  for (auto _ : state) {
    state.PauseTiming();
    bt::Testbed bed;
    bed.finalize();
    auto client = bed.make_client("bench");
    state.ResumeTiming();
    bt::CircuitOrigin* built = nullptr;
    client->build_circuit({}, [&](bt::CircuitOrigin* c) { built = c; });
    bed.run();
    benchmark::DoNotOptimize(built);
  }
}
BENCHMARK(BM_CircuitBuild)->Unit(benchmark::kMillisecond);

static void BM_StreamTransfer1MB(benchmark::State& state) {
  // Wall-clock cost of simulating a 1 MB transfer through a 3-hop circuit
  // (cells, flow control, fair queuing) — the simulator's core workload.
  for (auto _ : state) {
    state.PauseTiming();
    bt::Testbed bed;
    bed.finalize();
    bu::Rng rng(7);
    const bu::Bytes body = rng.bytes(1'000'000);
    bed.add_web_server(bt::parse_addr("93.184.216.34"),
                       [&body](const std::string&) { return body; });
    auto client = bed.make_client("bench");
    bt::PathConstraints constraints;
    constraints.exit_to = bt::Endpoint{bt::parse_addr("93.184.216.34"), 80};
    bt::CircuitOrigin* circ = nullptr;
    client->build_circuit(constraints, [&](bt::CircuitOrigin* c) { circ = c; });
    bed.run();
    state.ResumeTiming();

    std::size_t received = 0;
    bt::Stream::Callbacks cbs;
    cbs.on_data = [&](bu::ByteView d) { received += d.size(); };
    bt::Stream* stream = circ->open_stream(*constraints.exit_to, std::move(cbs));
    stream->set_on_connected([stream] { stream->send(bu::to_bytes("GET /\n")); });
    bed.run();
    benchmark::DoNotOptimize(received);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1'000'000);
}
BENCHMARK(BM_StreamTransfer1MB)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
