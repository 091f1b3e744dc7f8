// Autoscaling hidden service (paper §8, Figure 4).
//
// An operator uploads the LoadBalancer function; it establishes the hidden
// service, and as clients pile on it clones the service identity onto
// replica Bento boxes which answer rendezvous requests on its behalf —
// fully transparent to the clients, who only ever see one onion address.
//
// Build: cmake --build build --target hidden_service_lb
#include <iomanip>
#include <iostream>

#include "core/world.hpp"
#include "functions/loadbalancer.hpp"
#include "tor/hs.hpp"

namespace bc = bento::core;
namespace bf = bento::functions;
namespace bt = bento::tor;
namespace bu = bento::util;

int main() {
  std::cout << "=== Autoscaling hidden service (LoadBalancer) ===\n";

  bc::BentoWorldOptions options;
  options.testbed.guards = 3;
  options.testbed.middles = 6;
  options.testbed.exits = 2;
  options.testbed.relay_bandwidth = 4e6;
  bc::BentoWorld world(options);
  bf::register_loadbalancer(world.natives());
  world.start();

  auto operator_client = world.make_client("operator");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());

  bf::LoadBalancerConfig config;
  config.intro_points = 3;
  config.max_clients_per_replica = 2;
  config.content_bytes = 1'000'000;
  config.replica_boxes = {boxes[2], boxes[3], boxes[4]};

  std::shared_ptr<bc::BentoConnection> conn;
  operator_client.bento->connect(boxes[1], [&](std::shared_ptr<bc::BentoConnection> c) {
    conn = std::move(c);
  });
  world.run();
  std::optional<bc::TokenPair> tokens;
  std::vector<std::string> replies;
  conn->set_output_handler([&](bu::Bytes out) { replies.push_back(bu::to_string(out)); });
  conn->spawn(bc::kImagePythonOpSgx, [&](bool ok, std::string err) {
    if (!ok) { std::cerr << "spawn: " << err << "\n"; std::exit(1); }
    conn->upload(bf::loadbalancer_manifest(), "", "loadbalancer", config.serialize(),
                 [&](std::optional<bc::TokenPair> t, std::string err2) {
                   if (!t.has_value()) std::cerr << "upload: " << err2 << "\n";
                   tokens = std::move(t);
                 });
  });
  world.run();
  if (!tokens.has_value()) return 1;

  conn->invoke(tokens->invocation.bytes(), bu::to_bytes("onion"));
  world.run();
  if (replies.empty()) return 1;
  const std::string onion = replies.back();
  std::cout << "hidden service up at onion id " << onion << "\n";

  // Seven clients arrive at ~2 s intervals and download 1 MB each.
  struct Download {
    std::unique_ptr<bt::OnionProxy> proxy;
    std::unique_ptr<bt::HsClient> hs;
    std::size_t received = 0;
    double finished = -1;
  };
  std::vector<std::unique_ptr<Download>> downloads;
  for (int i = 0; i < 7; ++i) {
    auto dl = std::make_unique<Download>();
    dl->proxy = world.bed().make_client("client" + std::to_string(i), 4e6);
    dl->hs = std::make_unique<bt::HsClient>(*dl->proxy, world.bed().directory());
    Download* raw = dl.get();
    world.sim().after(bu::Duration::seconds(2.0 * i), [raw, onion, &world] {
      raw->hs->connect(onion, [raw, &world](bt::CircuitOrigin* circ) {
        if (circ == nullptr) return;
        bt::Stream::Callbacks cbs;
        cbs.on_data = [raw](bu::ByteView d) { raw->received += d.size(); };
        cbs.on_end = [raw, &world] { raw->finished = world.sim().now().seconds(); };
        bt::Stream* stream = circ->open_stream({0, 80}, std::move(cbs));
        stream->set_on_connected([stream] { stream->send(bu::to_bytes("GET\n")); });
      });
    });
    downloads.push_back(std::move(dl));
  }
  world.run();

  std::cout << std::fixed << std::setprecision(1);
  for (std::size_t i = 0; i < downloads.size(); ++i) {
    std::cout << "client " << i << ": " << downloads[i]->received / 1000
              << " KB, finished at t=" << downloads[i]->finished << " s\n";
  }

  conn->invoke(tokens->invocation.bytes(), bu::to_bytes("status"));
  world.run();
  std::cout << "loadbalancer " << replies.back() << "\n";
  for (const auto& dl : downloads) {
    if (dl->finished < 0 || dl->received < config.content_bytes) return 1;
  }
  return 0;
}
