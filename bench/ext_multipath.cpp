// Extension experiment (paper §9.4 "Multipath routing", implemented as a
// Bento function — see src/functions/multipath.hpp).
//
// Setup: per-circuit throughput is capped by slow middle relays; the exit
// Bento box has a fat uplink. A 2 MB fetch is striped over 1, 2, 3 and 4
// circuits sharing that exit. Expected shape (the mTor [87] / traffic-
// splitting [5] argument): download time drops roughly linearly with the
// number of circuits until the exit link (or the client's downlink)
// saturates.
#include <cstdio>

#include "core/world.hpp"
#include "functions/multipath.hpp"
#include "tor/testbed.hpp"

namespace bc = bento::core;
namespace bf = bento::functions;
namespace bt = bento::tor;
namespace bu = bento::util;

namespace {
constexpr std::size_t kBodyBytes = 2'000'000;

double run_one(int circuits) {
  bc::BentoWorldOptions options;
  options.testbed.seed = 11;
  options.testbed.guards = 6;
  options.testbed.middles = 14;  // enough diversity that stripes rarely collide
  options.testbed.exits = 0;           // the fat exit is added below
  options.testbed.relay_bandwidth = 300e3;  // slow circuits
  bc::BentoWorld world(options);
  bf::register_multipath(world.natives());

  // One fat exit Bento box shared by every circuit.
  bt::RelayConfig exit_cfg;
  exit_cfg.nickname = "fat-exit";
  exit_cfg.addr = bt::parse_addr("10.250.0.1");
  exit_cfg.bandwidth = 6e6;
  exit_cfg.up_bytes_per_sec = 6e6;
  exit_cfg.down_bytes_per_sec = 6e6;
  exit_cfg.flags.exit = true;
  exit_cfg.flags.fast = true;
  exit_cfg.flags.bento = true;
  exit_cfg.bento_policy = options.server.policy.serialize();
  exit_cfg.exit_policy = bt::ExitPolicy::accept_all();
  const std::size_t exit_index = world.bed().add_relay(exit_cfg);
  world.start();
  const std::string exit_box =
      world.bed().router(exit_index).descriptor().fingerprint();

  bu::Rng rng(3);
  const bu::Bytes body = rng.bytes(kBodyBytes);
  world.bed().add_web_server(bt::parse_addr("93.184.216.34"),
                             [&body](const std::string&) { return body; });

  auto client = world.make_client("alice", 6e6);
  bf::MultipathFetcher fetcher(*client.bento, circuits);
  double seconds = -1;
  bool ok = false;
  fetcher.fetch(exit_box, "http://93.184.216.34/big",
                [&] { return world.sim().now().seconds(); },
                [&](bf::MultipathFetcher::Result result) {
                  ok = result.ok && result.body.size() == kBodyBytes;
                  seconds = result.seconds;
                });
  world.run();
  return ok ? seconds : -1;
}
}  // namespace

int main() {
  std::printf("Extension: multipath routing as a Bento function (paper 9.4)\n");
  std::printf("2 MB fetch; per-circuit bottleneck ~300 KB/s; exit uplink 6 MB/s\n\n");
  std::printf("%-10s %-14s %-12s\n", "circuits", "download (s)", "speedup");
  double base = -1;
  for (int circuits : {1, 2, 3, 4}) {
    const double seconds = run_one(circuits);
    if (base < 0) base = seconds;
    std::printf("%-10d %-14.1f %-12.2f\n", circuits, seconds,
                seconds > 0 ? base / seconds : 0.0);
  }
  std::printf("\nShape to check: near-linear speedup while the slow middle\n"
              "relays are the bottleneck, flattening once the exit/client\n"
              "links saturate.\n");
  return 0;
}
