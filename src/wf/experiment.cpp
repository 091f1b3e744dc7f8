#include "wf/experiment.hpp"

#include <map>

#include "core/world.hpp"
#include "functions/library.hpp"
#include "wf/pageload.hpp"
#include "wf/trace.hpp"

namespace bento::wf {

const char* to_string(Defense d) {
  switch (d) {
    case Defense::None: return "None (unmodified Tor)";
    case Defense::Browser0: return "Browser, 0MB padding";
    case Defense::Browser1MB: return "Browser, 1MB padding";
    case Defense::Browser7MB: return "Browser, 7MB padding";
  }
  return "?";
}

std::size_t padding_bytes(Defense d) {
  switch (d) {
    case Defense::None:
    case Defense::Browser0: return 0;
    case Defense::Browser1MB: return 1'000'000;
    case Defense::Browser7MB: return 7'000'000;
  }
  return 0;
}

namespace {

/// Per-visit content size jitter (fraction).
constexpr double kSizeNoise = 0.04;
/// Web-server think-time jitter bounds (seconds).
constexpr double kThinkMinSeconds = 0.02;
constexpr double kThinkMaxSeconds = 0.35;
/// The testbed: relay access-link bandwidth (bytes/sec) and relay counts.
constexpr double kRelayBandwidth = 2.5e6;
constexpr int kGuards = 3;
constexpr int kMiddles = 4;
constexpr int kExits = 4;

/// One standard-Tor visit: fresh circuit, browser-style page load.
bool visit_standard(core::BentoWorld& world, tor::OnionProxy& victim,
                    const SiteModel& site) {
  bool ok = false;
  tor::PathConstraints constraints;
  constraints.exit_to = tor::Endpoint{site.addr, 80};
  tor::CircuitOrigin* circuit = nullptr;
  victim.build_circuit(constraints, [&](tor::CircuitOrigin* c) { circuit = c; });
  world.run();
  if (circuit == nullptr) return false;
  browse_page(*circuit, site, world.sim().now().seconds(),
              [&](PageLoadResult result) { ok = result.ok; });
  world.run();
  circuit->destroy();
  victim.forget(circuit);
  world.run();
  return ok;
}

/// One Bento-Browser visit: install + invoke, single padded download. The
/// recorded trace covers install..download; the container shutdown and
/// circuit teardown happen in cleanup() after the recorder stops.
struct BrowserVisit {
  bool ok = false;
  std::shared_ptr<core::BentoConnection> conn;
  std::optional<core::TokenPair> tokens;
};

BrowserVisit visit_browser(core::BentoWorld& world, core::BentoWorld::Client& client,
                           const std::string& box, const SiteModel& site,
                           std::size_t padding) {
  BrowserVisit visit;
  client.bento->connect(box, [&](std::shared_ptr<core::BentoConnection> c) {
    visit.conn = std::move(c);
  });
  world.run();
  if (visit.conn == nullptr) return visit;

  bool output_seen = false;
  bool output_ok = false;
  visit.conn->set_output_handler([&](util::Bytes out) {
    output_seen = true;
    output_ok = !(out.size() > 3 && out[0] == 'E' && out[1] == 'R' && out[2] == 'R');
  });
  visit.conn->install(
      functions::browser_manifest(), functions::browser_source(), "", {},
      [&](std::optional<core::TokenPair> tokens, std::string) {
        if (!tokens.has_value()) return;
        visit.tokens = std::move(tokens);
        const std::string url = "http://" + tor::format_addr(site.addr) + "/bundle";
        visit.conn->invoke(visit.tokens->invocation.bytes(),
                           util::to_bytes(url + " " + std::to_string(padding)));
      });
  world.run();
  visit.ok = output_seen && output_ok;
  return visit;
}

/// Post-trace cleanup: reclaim the container (else the box's container cap
/// fills after ~64 visits) and tear the circuit down.
void cleanup_browser_visit(core::BentoWorld& world, BrowserVisit& visit) {
  if (visit.conn == nullptr) return;
  if (visit.tokens.has_value()) {
    visit.conn->shutdown(visit.tokens->shutdown.bytes(), [](bool) {});
    world.run();
  }
  visit.conn->close();
  world.run();
}

}  // namespace

std::vector<Example> collect_dataset(
    const std::vector<SiteModel>& sites, const CollectOptions& options,
    const std::function<void(int done, int total)>& progress) {
  core::BentoWorldOptions world_options;
  world_options.testbed.seed = options.seed;
  world_options.testbed.guards = kGuards;
  world_options.testbed.middles = kMiddles;
  world_options.testbed.exits = kExits;
  world_options.testbed.relay_bandwidth = kRelayBandwidth;
  core::BentoWorld world(world_options);
  world.start();

  // One web server per site. Under the Browser defense the function fetches
  // "/bundle": the whole page as one document (the web client runs at the
  // exit; sub-resource dynamics never cross the victim's link).
  std::map<tor::Addr, const SiteModel*> by_addr;
  for (const auto& site : sites) by_addr[site.addr] = &site;
  auto visit_counter = std::make_shared<std::map<tor::Addr, std::uint64_t>>();
  std::uint64_t server_seed = options.seed * 977;
  for (const auto& site : sites) {
    const SiteModel* model = &site;
    auto& server = world.bed().add_web_server(
        site.addr,
        [model, visit_counter](const std::string& path)
            -> std::optional<util::Bytes> {
          const std::uint64_t visit = (*visit_counter)[model->addr];
          if (path == "/bundle") return model->bundle(visit, kSizeNoise);
          return model->body_for(path, visit, kSizeNoise);
        });
    // Live web servers answer with variable think time; this is what keeps
    // deterministic fetch-duration gaps from becoming a fingerprint the
    // real attack never had.
    server.set_think_time(util::Duration::seconds(kThinkMinSeconds),
                          util::Duration::seconds(kThinkMaxSeconds),
                          ++server_seed);
  }

  auto client = world.make_client("victim");
  TraceRecorder recorder(world.sim(), world.bed().net(), client.proxy->node());

  // Pick one exit Bento box for the Browser configurations.
  std::string exit_box;
  for (const auto& relay : world.bed().consensus().relays) {
    if (relay.flags.exit) exit_box = relay.fingerprint();
  }

  std::vector<Example> dataset;
  const int total = static_cast<int>(sites.size()) * options.visits_per_site;
  int done = 0;
  for (int visit = 0; visit < options.visits_per_site; ++visit) {
    for (std::size_t s = 0; s < sites.size(); ++s) {
      (*visit_counter)[sites[s].addr] =
          static_cast<std::uint64_t>(visit) * 1315423911u + s;
      recorder.start();
      bool ok;
      BrowserVisit visit;
      if (options.defense == Defense::None) {
        ok = visit_standard(world, *client.proxy, sites[s]);
      } else {
        visit = visit_browser(world, client, exit_box, sites[s],
                              padding_bytes(options.defense));
        ok = visit.ok;
      }
      Trace trace = recorder.stop(static_cast<int>(s));
      if (options.defense != Defense::None) cleanup_browser_visit(world, visit);
      if (ok && !trace.events.empty()) {
        dataset.push_back({extract_features(trace), trace.label});
      }
      ++done;
      if (progress) progress(done, total);
    }
  }
  return dataset;
}

AttackResult evaluate_attack(const std::vector<Example>& data, int classes,
                             int train_per_class, std::uint64_t seed) {
  std::map<int, int> seen;
  std::vector<Example> train, test;
  for (const auto& ex : data) {
    if (seen[ex.label]++ < train_per_class) {
      train.push_back(ex);
    } else {
      test.push_back(ex);
    }
  }
  AttackResult result;
  result.train_examples = static_cast<int>(train.size());
  result.test_examples = static_cast<int>(test.size());
  if (train.empty() || test.empty()) return result;

  util::Rng rng(seed);
  KnnClassifier knn(1);  // 1-NN is the stronger WF attacker at few shots
  knn.train(train, rng);
  result.knn_accuracy = knn.accuracy(test);

  MlpClassifier mlp(classes);
  mlp.train(train, rng);
  result.mlp_accuracy = mlp.accuracy(test);
  return result;
}

}  // namespace bento::wf
