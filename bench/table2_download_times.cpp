// Table 2 (paper §7.3): full-page download times for five domains under
// standard Tor vs Browser with 0/1/7 MB padding — plus the two ablations
// DESIGN.md §5 calls out:
//   * page-ready time (the paper's note: the viewable page arrives in
//     ~0MB time; the rest of the download is pure padding), and
//   * the TCP slow-start model switched off (--no-slow-start rows), which
//     erases the small-site crossover.
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>

#include "core/world.hpp"
#include "functions/library.hpp"
#include "util/zlite.hpp"
#include "wf/pageload.hpp"
#include "wf/sites.hpp"

namespace bc = bento::core;
namespace bf = bento::functions;
namespace bt = bento::tor;
namespace bu = bento::util;
namespace bw = bento::wf;

namespace {
struct WorldSetup {
  std::unique_ptr<bc::BentoWorld> world;
  std::unique_ptr<bc::BentoWorld::Client> client;
  std::string exit_box;
};

WorldSetup make_world(const std::vector<bw::SiteModel>& sites, bool slow_start) {
  bc::BentoWorldOptions options;
  options.testbed.seed = 77;
  // Live-Tor-like circuit throughput (~250 KB/s bottleneck) and wide-area
  // latencies; clearnet legs from the exit are fast by comparison.
  options.testbed.relay_bandwidth = 250e3;
  options.testbed.min_latency = bu::Duration::millis(15);
  options.testbed.max_latency = bu::Duration::millis(60);
  WorldSetup setup;
  setup.world = std::make_unique<bc::BentoWorld>(options);
  setup.world->start();
  for (const auto& site : sites) {
    const bw::SiteModel* model = &site;
    auto& server = setup.world->bed().add_web_server(
        site.addr,
        [model](const std::string& path) -> std::optional<bu::Bytes> {
          if (path == "/bundle") return model->bundle(1, 0.0);
          return model->body_for(path, 1, 0.0);
        },
        4e6);
    server.set_slow_start(slow_start);
  }
  for (const auto& relay : setup.world->bed().consensus().relays) {
    if (relay.flags.exit) setup.exit_box = relay.fingerprint();
  }
  setup.client = std::make_unique<bc::BentoWorld::Client>(
      setup.world->make_client("alice", 4e6));
  return setup;
}

double standard_tor_time(WorldSetup& setup, const bw::SiteModel& site) {
  auto& world = *setup.world;
  bt::PathConstraints constraints;
  constraints.exit_to = bt::Endpoint{site.addr, 80};
  bt::CircuitOrigin* circuit = nullptr;
  setup.client->proxy->build_circuit(constraints,
                                     [&](bt::CircuitOrigin* c) { circuit = c; });
  world.run();
  if (circuit == nullptr) return -1;
  const double start = world.sim().now().seconds();
  double finished = -1;
  bw::browse_page(*circuit, site, start, [&](bw::PageLoadResult result) {
    finished = result.ok ? world.sim().now().seconds() : -1;
  });
  world.run();
  circuit->destroy();
  setup.client->proxy->forget(circuit);
  world.run();
  return finished < 0 ? -1 : finished - start;
}

struct BrowserTiming {
  double full = -1;        // last byte incl. padding
  double page_ready = -1;  // content bytes complete (enough to render)
};

BrowserTiming browser_time(WorldSetup& setup, const bw::SiteModel& site,
                           std::size_t padding) {
  auto& world = *setup.world;
  std::shared_ptr<bc::BentoConnection> conn;
  setup.client->bento->connect(setup.exit_box,
                               [&](std::shared_ptr<bc::BentoConnection> c) {
                                 conn = std::move(c);
                               });
  world.run();
  BrowserTiming timing;
  if (conn == nullptr) return timing;

  // Content size: what the compressed page occupies before padding.
  const std::size_t content_size = bu::zlite::compress(site.bundle(1, 0.0)).size();

  // Paper metric: "from the time the client issues the request to the
  // function until it is done downloading" — setup (spawn/attest/upload)
  // is excluded.
  double start = 0;
  auto received = std::make_shared<std::size_t>(0);
  conn->set_output_handler([&, received](bu::Bytes out) {
    *received += out.size();
    timing.full = world.sim().now().seconds() - start;
  });
  // Page-ready: observe the raw stream crossing content_size (the padding
  // bytes come after the compressed page). Sampled at 50 ms granularity.
  // The stored function captures itself weakly; each scheduled sample
  // holds the strong reference, so the loop is freed once it stops.
  auto poll = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak_poll = poll;
  std::size_t raw_at_invoke = 0;
  *poll = [&, weak_poll] {
    const std::size_t raw = conn->raw_bytes_received() - raw_at_invoke;
    if (timing.page_ready < 0 && content_size > 0 && raw >= content_size) {
      timing.page_ready = world.sim().now().seconds() - start;
    }
    if (timing.full >= 0) return;
    if (auto self = weak_poll.lock()) {
      world.sim().after(bu::Duration::millis(50), [self] { (*self)(); });
    }
  };

  conn->install(bf::browser_manifest(), bf::browser_source(), "", {},
                [&](std::optional<bc::TokenPair> tokens, std::string) {
                  if (!tokens.has_value()) return;
                  start = world.sim().now().seconds();
                  raw_at_invoke = conn->raw_bytes_received();
                  conn->invoke(tokens->invocation.bytes(),
                               bu::to_bytes("http://" + bt::format_addr(site.addr) +
                                            "/bundle " + std::to_string(padding)));
                  (*poll)();
                });
  world.run();
  if (timing.page_ready < 0) timing.page_ready = timing.full;
  conn->close();
  world.run();
  return timing;
}

struct PaperRow {
  const char* domain;
  double standard, p0, p1, p7;
};
}  // namespace

int main(int argc, char** argv) {
  const bool ablate = argc > 1 && std::strcmp(argv[1], "--no-slow-start") == 0;
  auto sites = bw::table2_sites();

  const PaperRow paper[] = {
      {"indiatoday.in", 5.0, 6.4, 34.9, 86.0}, {"yahoo.com", 6.7, 6.3, 21.2, 87.4},
      {"netflix.com", 8.5, 8.1, 28.4, 86.3},   {"ebay.com", 6.1, 7.0, 22.3, 81.8},
      {"aliexpress.com", 3.1, 5.9, 37.7, 91.9}};

  std::printf("Table 2: download times in seconds (paper values in parentheses)\n");
  std::printf("TCP slow-start model: %s\n\n", ablate ? "DISABLED (ablation)" : "on");
  std::printf("%-16s | %-16s | %-16s | %-16s | %-16s | page-ready@1MB\n", "Domain",
              "standard Tor", "Browser 0MB", "Browser 1MB", "Browser 7MB");

  for (std::size_t i = 0; i < sites.size(); ++i) {
    // A fresh world per site keeps the circuits comparable.
    WorldSetup setup = make_world(sites, !ablate);
    const double std_time = standard_tor_time(setup, sites[i]);
    const BrowserTiming b0 = browser_time(setup, sites[i], 0);
    const BrowserTiming b1 = browser_time(setup, sites[i], 1'000'000);
    const BrowserTiming b7 = browser_time(setup, sites[i], 7'000'000);
    std::printf("%-16s | %6.1f (%5.1f)  | %6.1f (%5.1f)  | %6.1f (%5.1f)  | "
                "%6.1f (%5.1f)  | %6.1f\n",
                paper[i].domain, std_time, paper[i].standard, b0.full, paper[i].p0,
                b1.full, paper[i].p1, b7.full, paper[i].p7, b1.page_ready);
  }

  std::printf(
      "\nShape to check (paper): padding dominates cost (7MB >> 1MB >> 0MB);\n"
      "Browser beats standard Tor on RTT-bound sites (bold cells in the paper);\n"
      "page-ready@1MB ~= the 0MB column (padding arrives after the content).\n");
  if (!ablate) {
    std::printf("Run with --no-slow-start for the transport-model ablation.\n");
  }
  return 0;
}
