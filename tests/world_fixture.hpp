// The world the Bento end-to-end tests start from. Every case begins with
// the paper's client workflow (§5): connect to a box over a 3-hop circuit,
// then install a function there (spawn the manifest's image, attesting
// python-op-sgx, and upload). Deployed runs that sequence once, here; the
// echo function, the exit-box lookup, the scaffolding the chaos and
// durability tests share (seed, flight-recorder scope, box crash) and the
// LoadBalancer tests' hidden-service downloads sit beside it.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/chaos.hpp"
#include "core/world.hpp"
#include "obs/trace.hpp"
#include "tor/hs.hpp"

/// Answers every message with "echo: " and the message.
inline constexpr char kEchoSource[] = R"(
def on_message(msg):
    api.send("echo: " + str(msg))
)";

/// A small function on `image`: no extra syscalls, 8 MiB of memory, 1M
/// instructions, 1 MiB each of disk and network.
inline bento::core::FunctionManifest echo_manifest(const std::string& image) {
  bento::core::FunctionManifest manifest;
  manifest.name = "echo";
  manifest.image = image;
  manifest.resources.memory_bytes = 8 << 20;
  manifest.resources.cpu_instructions = 1'000'000;
  manifest.resources.disk_bytes = 1 << 20;
  manifest.resources.network_bytes = 1 << 20;
  return manifest;
}

/// A function put on a box: the connection it came over, its tokens (or the
/// failing step's error) and every output the box sent back since. The
/// connection's handlers hold its address, so it is built in place and
/// never copied or moved.
class Deployed {
 public:
  /// Connects `client` to `box` and settles, then installs the function and
  /// settles again. `settle` defaults to world.run(); tests whose timers
  /// recur forever pass a bounded run_for. A failed connect installs
  /// nothing and leaves `error` at "connect failed".
  Deployed(bento::core::BentoWorld& world, bento::core::BentoWorld::Client& client,
           const std::string& box, const bento::core::FunctionManifest& manifest,
           const std::string& source, const std::string& native = "",
           bento::util::ByteView args = {}, const std::function<void()>& settle = {}) {
    const auto run = [&] { settle ? settle() : world.run(); };
    client.bento->connect(box, [this](std::shared_ptr<bento::core::BentoConnection> c) {
      conn = std::move(c);
    });
    run();
    if (conn == nullptr) {
      error = "connect failed";
      return;
    }
    conn->set_output_handler(
        [this](bento::util::Bytes out) { outputs.push_back(std::move(out)); });
    conn->install(manifest, source, native, args,
                  [this](std::optional<bento::core::TokenPair> t, std::string e) {
                    tokens = std::move(t);
                    error = std::move(e);
                  });
    run();
  }
  Deployed(const Deployed&) = delete;
  Deployed& operator=(const Deployed&) = delete;
  /// The connection can outlive this object (its client keeps it anchored):
  /// later outputs must not land here.
  ~Deployed() {
    if (conn != nullptr) conn->set_output_handler(nullptr);
  }

  std::shared_ptr<bento::core::BentoConnection> conn;
  std::optional<bento::core::TokenPair> tokens;
  std::string error;
  std::vector<bento::util::Bytes> outputs;
};

/// The first exit relay in the consensus: a box whose functions reach the
/// clearnet.
inline std::string exit_box(bento::core::BentoWorld& world) {
  for (const auto& relay : world.bed().consensus().relays) {
    if (relay.flags.exit) return relay.fingerprint();
  }
  return "";
}

/// The seed of a chaos or durability scenario: $BENTO_CHAOS_SEED when set
/// (CI sweeps 1..8), otherwise the test's own `fallback`.
inline std::uint64_t chaos_seed(std::uint64_t fallback) {
  const char* s = std::getenv("BENTO_CHAOS_SEED");
  if (s == nullptr || *s == '\0') return fallback;
  return std::strtoull(s, nullptr, 10);
}

/// Turns the flight recorder on for one test. On destruction it writes the
/// capture to $BENTO_CHAOS_ARTIFACT_DIR/<name>.jsonl if the test failed,
/// then turns the recorder off.
class RecorderScope {
 public:
  explicit RecorderScope(std::string name) : name_(std::move(name)) {
    bento::obs::recorder().enable(1 << 15);
  }
  RecorderScope(const RecorderScope&) = delete;
  RecorderScope& operator=(const RecorderScope&) = delete;

  ~RecorderScope() {
    const char* dir = std::getenv("BENTO_CHAOS_ARTIFACT_DIR");
    if (dir != nullptr && *dir != '\0' && ::testing::Test::HasFailure()) {
      std::ofstream out(std::string(dir) + "/" + name_ + ".jsonl");
      out << jsonl();
    }
    bento::obs::recorder().disable();
  }

  std::string jsonl() const {
    std::ostringstream os;
    bento::obs::recorder().export_jsonl(os);
    return os.str();
  }

 private:
  std::string name_;
};

/// Crashes both layers of a box when the chaos engine takes its node down:
/// the Tor router forgets every circuit and the Bento server loses its
/// containers (conclaves die with the machine).
inline void wire_box_crash(bento::chaos::ChaosEngine& engine, bento::core::BentoWorld& world,
                           const std::string& fingerprint) {
  bento::tor::Router* router = world.bed().router_by_fingerprint(fingerprint);
  ASSERT_NE(router, nullptr);
  engine.set_node_handler(router->node(), [&world, fingerprint](bool up) {
    if (up) return;
    if (bento::core::BentoServer* server = world.server_for(fingerprint)) server->crash();
    world.bed().router_by_fingerprint(fingerprint)->crash();
  });
}

/// A client fetching a hidden service's content: one "GET\n" to port 80 of
/// the onion address, counting the bytes that come back.
struct HsDownload {
  std::unique_ptr<bento::tor::OnionProxy> proxy;
  std::unique_ptr<bento::tor::HsClient> hs;
  std::size_t received = 0;
  bool done = false;
};

/// Starts `n` HsDownloads of `onion` from clients of their own, the i-th
/// (from 0) 1 + i seconds from now.
inline std::vector<std::unique_ptr<HsDownload>> start_hs_downloads(
    bento::core::BentoWorld& world, const std::string& onion, int n) {
  std::vector<std::unique_ptr<HsDownload>> downloads;
  for (int i = 0; i < n; ++i) {
    auto dl = std::make_unique<HsDownload>();
    dl->proxy = world.bed().make_client("dl" + std::to_string(i), 4e6);
    dl->hs = std::make_unique<bento::tor::HsClient>(*dl->proxy, world.bed().directory());
    HsDownload* raw = dl.get();
    world.sim().after(bento::util::Duration::seconds(1 + i), [raw, onion] {
      raw->hs->connect(onion, [raw](bento::tor::CircuitOrigin* circ) {
        if (circ == nullptr) return;
        bento::tor::Stream::Callbacks cbs;
        cbs.on_data = [raw](bento::util::ByteView data) { raw->received += data.size(); };
        cbs.on_end = [raw] { raw->done = true; };
        bento::tor::Stream* stream = circ->open_stream({0, 80}, std::move(cbs));
        stream->set_on_connected(
            [stream] { stream->send(bento::util::to_bytes("GET\n")); });
      });
    });
    downloads.push_back(std::move(dl));
  }
  return downloads;
}
