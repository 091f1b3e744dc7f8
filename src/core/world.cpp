#include "core/world.hpp"

#include <sstream>

namespace bento::core {

namespace {
BentoWorldOptions with_policy(BentoWorldOptions options) {
  options.testbed.all_bento = true;
  options.testbed.bento_policy = options.server.policy.serialize();
  return options;
}
}  // namespace

BentoWorld::BentoWorld(const BentoWorldOptions& options)
    : options_(with_policy(options)), bed_(options_.testbed) {
  ias_ = std::make_unique<tee::IntelAttestationService>(bed_.rng());
}

void BentoWorld::start() {
  if (started_) throw std::logic_error("BentoWorld: start() twice");
  started_ = true;
  bed_.finalize();
  for (std::size_t i = 0; i < bed_.router_count(); ++i) {
    tor::Router& router = bed_.router(i);
    if (!router.descriptor().flags.bento) continue;
    servers_.push_back(std::make_unique<BentoServer>(
        bed_.sim(), bed_.net(), router, bed_.directory(), bed_.consensus(), *ias_,
        natives_, options_.server, bed_.rng().fork()));
  }
}

BentoServer* BentoWorld::server_for(const std::string& fingerprint) {
  for (auto& server : servers_) {
    if (server->fingerprint() == fingerprint) return server.get();
  }
  return nullptr;
}

BentoWorld::Client BentoWorld::make_client(const std::string& name, double bandwidth) {
  Client client;
  client.proxy = bed_.make_client(name, bandwidth);
  client.bento = std::make_unique<BentoClient>(*client.proxy, client_config());
  return client;
}

obs::Snapshot BentoWorld::snapshot_stats() {
  obs::Snapshot snap = obs::registry().snapshot();

  std::ostringstream servers;
  servers << "bento servers (" << servers_.size() << ")\n";
  for (const auto& server : servers_) {
    const BentoServer::Counters& c = server->counters();
    servers << "  " << server->fingerprint() << ": spawns=" << c.spawns
            << " uploads=" << c.uploads << " invokes=" << c.invokes
            << " shutdowns=" << c.shutdowns << " deaths=" << c.deaths
            << " rejected=" << (c.rejected_manifests + c.rejected_static)
            << " live=" << server->live_containers()
            << " mem=" << server->total_memory_bytes() << "B\n";
    for (const Container* container : server->containers()) {
      const Container::FnStats& fs = container->fn_stats();
      servers << "    fn " << container->manifest().name << "@" << container->id()
              << " [" << container->image() << "]: invokes=" << fs.invokes
              << " bytes_in=" << fs.bytes_in << " bytes_out=" << fs.bytes_out
              << " installed_at_us=" << fs.installed_at_us << "\n";
    }
  }
  snap.sections.push_back(std::move(servers).str());

  std::ostringstream nodes;
  sim::Network& net = bed_.net();
  nodes << "network nodes (" << net.node_count() << ")\n";
  for (sim::NodeId n = 0; n < net.node_count(); ++n) {
    const sim::NodeStats& ns = net.stats(n);
    nodes << "  " << n << " " << net.spec(n).name << ": tx=" << ns.bytes_sent
          << "B/" << ns.messages_sent << "msg rx=" << ns.bytes_received << "B/"
          << ns.messages_received << "msg queue_hw=" << ns.up_queue_high_water
          << "up/" << ns.down_queue_high_water << "down\n";
  }
  snap.sections.push_back(std::move(nodes).str());
  return snap;
}

}  // namespace bento::core
