// Figure 5 (paper §8.3): per-client download speed over time with and
// without the LoadBalancer.
//
// Paper setup: 13 clients arriving at ~1 s intervals, each downloading a
// 10 MB file from the hidden service; 4 host machines total; LoadBalancer
// permits at most 2 clients per replica. Expected shape: without the
// LoadBalancer every client is pinned to a fraction of one server's
// bandwidth and downloads crawl; with it replicas spin up as clients
// arrive, per-client speed is several times higher and downloads finish
// sooner.
//
// Output: one CSV block per panel (time series of per-client KB/s in 2 s
// windows) plus a summary table.
#include <cstdio>
#include <memory>
#include <vector>

#include "core/world.hpp"
#include "functions/loadbalancer.hpp"
#include "tor/hs.hpp"

namespace bc = bento::core;
namespace bf = bento::functions;
namespace bt = bento::tor;
namespace bu = bento::util;

namespace {
constexpr int kClients = 13;
constexpr std::uint64_t kFileBytes = 10'000'000;
constexpr double kWindowSeconds = 2.0;
constexpr double kHorizonSeconds = 240.0;

struct ClientRun {
  std::unique_ptr<bt::OnionProxy> proxy;
  std::unique_ptr<bt::HsClient> hs;
  std::size_t received = 0;
  std::size_t last_sample = 0;
  double start = -1, finish = -1;
  std::vector<double> kbps;  // per window
};

struct PanelResult {
  std::vector<std::unique_ptr<ClientRun>> clients;
  std::string lb_status;
};

void start_clients(bc::BentoWorld& world, const std::string& onion,
                   PanelResult& panel) {
  for (int i = 0; i < kClients; ++i) {
    auto run = std::make_unique<ClientRun>();
    run->proxy = world.bed().make_client("client" + std::to_string(i), 1.0e6);
    run->hs = std::make_unique<bt::HsClient>(*run->proxy, world.bed().directory());
    ClientRun* raw = run.get();
    world.sim().after(bu::Duration::seconds(1.0 + i), [raw, onion, &world] {
      raw->start = world.sim().now().seconds();
      raw->hs->connect(onion, [raw, &world](bt::CircuitOrigin* circ) {
        if (circ == nullptr) return;
        bt::Stream::Callbacks cbs;
        cbs.on_data = [raw](bu::ByteView d) { raw->received += d.size(); };
        cbs.on_end = [raw, &world] { raw->finish = world.sim().now().seconds(); };
        bt::Stream* stream = circ->open_stream({0, 80}, std::move(cbs));
        stream->set_on_connected([stream] { stream->send(bu::to_bytes("GET\n")); });
      });
    });
    panel.clients.push_back(std::move(run));
  }
  // Sampler: per-window download rate for each client. The stored function
  // captures itself weakly; each scheduled sample holds the strong
  // reference, so the loop is freed once it stops.
  auto sampler = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak_sampler = sampler;
  *sampler = [&panel, &world, weak_sampler] {
    for (auto& client : panel.clients) {
      const std::size_t delta = client->received - client->last_sample;
      client->last_sample = client->received;
      client->kbps.push_back(static_cast<double>(delta) / 1000.0 / kWindowSeconds);
    }
    if (world.sim().now().seconds() >= kHorizonSeconds) return;
    if (auto self = weak_sampler.lock()) {
      world.sim().after(bu::Duration::seconds(kWindowSeconds), [self] { (*self)(); });
    }
  };
  world.sim().after(bu::Duration::seconds(kWindowSeconds), [sampler] { (*sampler)(); });
}

void print_panel(const char* title, const PanelResult& panel) {
  std::printf("\n--- %s ---\n", title);
  std::printf("time_s");
  for (int i = 0; i < kClients; ++i) std::printf(",client%d_KBps", i + 1);
  std::printf("\n");
  std::size_t windows = 0;
  for (const auto& c : panel.clients) windows = std::max(windows, c->kbps.size());
  for (std::size_t w = 0; w < windows; ++w) {
    // Skip all-zero tail rows.
    bool any = false;
    for (const auto& c : panel.clients) {
      if (w < c->kbps.size() && c->kbps[w] > 0) any = true;
    }
    if (!any && w > 5) continue;
    std::printf("%.0f", (static_cast<double>(w) + 1) * kWindowSeconds);
    for (const auto& c : panel.clients) {
      std::printf(",%.0f", w < c->kbps.size() ? c->kbps[w] : 0.0);
    }
    std::printf("\n");
  }
  double total_time = 0, peak = 0;
  int finished = 0;
  for (const auto& c : panel.clients) {
    if (c->finish >= 0) {
      ++finished;
      total_time += c->finish - c->start;
    }
    for (double v : c->kbps) peak = std::max(peak, v);
  }
  std::printf("summary: %d/%d clients finished, mean download time %.1f s, "
              "peak per-client rate %.0f KB/s\n",
              finished, kClients,
              finished > 0 ? total_time / finished : -1.0, peak);
  if (!panel.lb_status.empty()) {
    std::printf("loadbalancer: %s\n", panel.lb_status.c_str());
  }
}

constexpr double kHostBandwidth = 450e3;  // EC2-T2-like serving hosts

bc::BentoWorldOptions world_options() {
  bc::BentoWorldOptions options;
  options.testbed.seed = 5;
  options.testbed.guards = 3;
  options.testbed.middles = 8;
  options.testbed.exits = 2;
  // The Tor network itself is not the bottleneck (live Tor in the paper);
  // only the serving hosts are EC2-T2-sized.
  options.testbed.relay_bandwidth = 5e6;
  options.testbed.min_latency = bu::Duration::millis(15);
  options.testbed.max_latency = bu::Duration::millis(50);
  return options;
}

/// Adds the four T2-sized Bento host relays (paper: "four Tor nodes that
/// host the hidden service"). Returns their fingerprints.
std::vector<std::string> add_host_relays(bc::BentoWorld& world,
                                         const bc::MiddleboxPolicy& policy) {
  std::vector<std::string> hosts;
  for (int i = 0; i < 4; ++i) {
    bento::tor::RelayConfig cfg;
    cfg.nickname = "host" + std::to_string(i);
    cfg.addr = bento::tor::parse_addr("10." + std::to_string(200 + i) + ".0.1");
    cfg.bandwidth = kHostBandwidth;
    cfg.up_bytes_per_sec = kHostBandwidth;
    cfg.down_bytes_per_sec = kHostBandwidth;
    cfg.flags.fast = true;
    cfg.flags.bento = true;
    cfg.bento_policy = policy.serialize();
    cfg.exit_policy = bento::tor::ExitPolicy::reject_all();
    const std::size_t index = world.bed().add_relay(cfg);
    hosts.push_back(world.bed().router(index).descriptor().fingerprint());
  }
  return hosts;
}
}  // namespace

int main() {
  std::printf("Figure 5: per-client bandwidth, hidden service with/without "
              "LoadBalancer\n(%d clients, 1 s arrivals, %.0f MB file, max 2 "
              "clients per replica, 4 hosts)\n",
              kClients, kFileBytes / 1e6);

  // ---- Panel 1: without LoadBalancer (single hidden service host). ----
  {
    bc::BentoWorld world(world_options());
    world.start();
    auto host_proxy = world.bed().make_client("hs-host", kHostBandwidth);
    bt::HiddenServiceHost host(*host_proxy, world.bed().directory(), 3);
    host.set_stream_acceptor([](bt::Stream& stream) {
      stream.set_on_data([&stream](bu::ByteView) {
        bu::Bytes chunk(64 * 1024, 0x42);
        std::uint64_t left = kFileBytes;
        while (left > 0) {
          const std::size_t n =
              static_cast<std::size_t>(std::min<std::uint64_t>(left, chunk.size()));
          stream.send(bu::Bytes(chunk.begin(), chunk.begin() + static_cast<std::ptrdiff_t>(n)));
          left -= n;
        }
        stream.end();
      });
      return true;
    });
    bool ready = false;
    host.start([&](bool ok) { ready = ok; });
    world.run();
    if (!ready) {
      std::fprintf(stderr, "hidden service failed to start\n");
      return 1;
    }
    PanelResult panel;
    start_clients(world, host.onion_id(), panel);
    world.run();
    print_panel("without LoadBalancer (all clients share one server)", panel);
  }

  // ---- Panel 2: with LoadBalancer (local + 3 replicas, cap 2). ----
  {
    bc::BentoWorldOptions options = world_options();
    bc::BentoWorld world(options);
    bf::register_loadbalancer(world.natives());
    std::vector<std::string> hosts = add_host_relays(world, options.server.policy);
    world.start();
    auto operator_client = world.make_client("operator", 1e6);

    bf::LoadBalancerConfig config;
    config.intro_points = 3;
    config.max_clients_per_replica = 2;
    config.content_bytes = kFileBytes;
    config.replica_boxes = {hosts[1], hosts[2], hosts[3]};  // 4 hosts total

    std::shared_ptr<bc::BentoConnection> conn;
    operator_client.bento->connect(hosts[0],
                                   [&](std::shared_ptr<bc::BentoConnection> c) {
                                     conn = std::move(c);
                                   });
    world.run();
    std::optional<bc::TokenPair> tokens;
    std::vector<std::string> replies;
    conn->set_output_handler(
        [&](bu::Bytes out) { replies.push_back(bu::to_string(out)); });
    conn->install(bf::loadbalancer_manifest(), "", "loadbalancer", config.serialize(),
                  [&](std::optional<bc::TokenPair> t, std::string err) {
                    if (!t.has_value()) std::fprintf(stderr, "install: %s\n", err.c_str());
                    tokens = std::move(t);
                  });
    world.run();
    if (!tokens.has_value()) return 1;
    conn->invoke(tokens->invocation.bytes(), bu::to_bytes("onion"));
    world.run();
    const std::string onion = replies.back();

    PanelResult panel;
    start_clients(world, onion, panel);
    world.run();
    conn->invoke(tokens->invocation.bytes(), bu::to_bytes("status"));
    world.run();
    panel.lb_status = replies.back();
    print_panel("with LoadBalancer (replicas spun up on demand)", panel);
  }

  std::printf(
      "\nShape to check (paper): without the LoadBalancer all clients converge\n"
      "to the same small share of one server and finish together (late);\n"
      "with it, additional replicas absorb arrivals, per-client rates are\n"
      "several times higher and downloads finish much sooner.\n");
  return 0;
}
