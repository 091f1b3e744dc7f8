// Datapath fixtures shared by the microbenchmarks, which time them
// (bench/datapath.cpp, bench/store.cpp), and by tests/alloc_test.cpp, which
// counts the heap allocations they make. Keeping one copy means the bench
// times exactly the loop whose allocation invariant tier-1 enforces.
// StoreHarness is counted only; perfbench's traced probes time the store.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/world.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "store/sealer.hpp"
#include "store/store.hpp"
#include "store/volume.hpp"
#include "tor/cell.hpp"
#include "tor/relaycrypto.hpp"
#include "util/rng.hpp"

namespace bento::bench {

/// One 3-hop circuit's relay crypto: the origin seals for the exit and
/// onion-encrypts all three layers; each relay peels its layer and runs
/// recognition. Every hop's cipher and digest state advances exactly as on
/// a live circuit.
struct Datapath3Hop {
  std::vector<tor::LayerCrypto> origin;
  std::vector<tor::LayerCrypto> relays;
  std::array<std::uint8_t, tor::kCellPayloadLen> cell_template{};
  std::uint64_t recognized_at_exit = 0;

  Datapath3Hop() {
    util::Rng rng(3);
    std::array<tor::LayerKeys, 3> keys = {
        tor::LayerKeys::derive(rng.bytes(32), "hop0"),
        tor::LayerKeys::derive(rng.bytes(32), "hop1"),
        tor::LayerKeys::derive(rng.bytes(32), "hop2"),
    };
    for (const tor::LayerKeys& k : keys) {
      origin.emplace_back(k);
      relays.emplace_back(k);
    }
    const util::Bytes data = rng.bytes(tor::kRelayDataMax);
    tor::RelayCell rc;
    rc.relay_cmd = tor::RelayCommand::Data;
    rc.stream_id = 7;
    rc.data = data;
    cell_template = rc.pack();
  }

  void traverse() {
    auto payload = cell_template;
    origin[2].seal_forward(payload);
    for (int i = 2; i >= 0; --i) origin[static_cast<std::size_t>(i)].crypt_forward(payload);
    for (tor::LayerCrypto& relay : relays) {
      relay.crypt_forward(payload);
      if (relay.check_forward(payload)) {
        ++recognized_at_exit;
        break;
      }
    }
  }
};

/// Two nodes on a 50 µs link; batch() sends n cells from a to b and runs the
/// simulator dry. The one inherent allocation per message is the owned wire
/// buffer handed to send(); everything downstream is pooled or amortized.
struct NetSendHarness {
  struct CountingSink : sim::MessageHandler {
    std::uint64_t received = 0;
    void on_message(sim::NodeId, util::Bytes) override { ++received; }
  };

  sim::Simulator sim{1};
  sim::Network net{sim};
  CountingSink sink;
  sim::NodeId a;
  sim::NodeId b;
  util::Bytes cell;

  NetSendHarness() {
    a = net.add_node({"a", 1e9, 1e9});
    b = net.add_node({"b", 1e9, 1e9}, &sink);
    net.set_latency(a, b, util::Duration::micros(50));
    util::Rng rng(5);
    cell = rng.bytes(tor::kCellLen);
  }

  void batch(int n) {
    for (int i = 0; i < n; ++i) net.send(a, b, util::Bytes(cell));
    sim.run();
  }
};

inline crypto::ChaChaKey store_key() {
  crypto::ChaChaKey key{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(0x42 + i);
  }
  return key;
}

/// A store over a fresh volume with a fixed path set; batch() overwrites the
/// paths round-robin. After two full rounds every put is an overwrite in
/// place: the steady state the zero-allocation invariant is stated for.
struct StoreHarness {
  store::Volume volume;
  std::unique_ptr<store::BlobStore> blobs;
  std::vector<std::string> paths;
  util::Bytes payload;
  std::size_t cursor = 0;

  StoreHarness(std::size_t payload_bytes, std::size_t n_paths, bool sealed,
               std::size_t segment_bytes) {
    store::StoreOptions opts;
    opts.segment_bytes = segment_bytes;
    auto sealer = sealed ? store::make_chapoly_sealer(store_key())
                         : store::make_null_sealer();
    blobs = std::make_unique<store::BlobStore>(volume, std::move(sealer), opts);
    blobs->replay();
    util::Rng rng(11);
    payload = rng.bytes(payload_bytes);
    paths.reserve(n_paths);
    for (std::size_t i = 0; i < n_paths; ++i) {
      paths.push_back("blob/" + std::to_string(i));
    }
  }

  void batch(int n) {
    for (int i = 0; i < n; ++i) {
      blobs->put(paths[cursor], payload);
      cursor = (cursor + 1) % paths.size();
    }
  }
};

/// A world with an echo function deployed on one box; batch() pushes invokes
/// through the full client->circuit->container datapath. The function never
/// touches fs.*, so with persistent_store on the mounted store is a pure
/// bystander.
struct WorldHarness {
  core::BentoWorld world;
  core::BentoWorld::Client client;
  std::shared_ptr<core::BentoConnection> conn;
  std::optional<core::TokenPair> tokens;
  std::uint64_t received = 0;
  util::Bytes payload;

  static core::BentoWorldOptions options(bool persistent) {
    core::BentoWorldOptions o;
    o.testbed.guards = 2;
    o.testbed.middles = 2;
    o.testbed.exits = 2;
    o.server.persistent_store = persistent;
    return o;
  }

  explicit WorldHarness(bool persistent) : world(options(persistent)) {
    world.start();
    client = world.make_client("bench");
    const auto boxes = core::BentoClient::find_boxes(world.bed().consensus());
    client.bento->connect(boxes[0],
                          [this](std::shared_ptr<core::BentoConnection> c) {
                            conn = std::move(c);
                          });
    world.run();
    core::FunctionManifest manifest;
    manifest.name = "bench";
    // The permissive policy's ceilings, verbatim: budgets are cumulative
    // over the function's lifetime and the bench invokes ~100k times.
    manifest.resources.memory_bytes = 64ull << 20;
    manifest.resources.cpu_instructions = 2'000'000'000ull;
    manifest.resources.disk_bytes = 1ull << 20;
    manifest.resources.network_bytes = 4ull << 30;
    conn->install(manifest, "def on_message(msg):\n    api.send(msg)\n", "", {},
                  [this](std::optional<core::TokenPair> t, std::string) { tokens = t; });
    world.run();
    conn->set_output_handler([this](util::Bytes) { ++received; });
    util::Rng rng(3);
    payload = rng.bytes(256);
  }

  void batch(int n) {
    for (int i = 0; i < n; ++i) {
      conn->invoke(tokens->invocation.bytes(), payload);
    }
    world.run();
  }
};

}  // namespace bento::bench
