// Adversarial/robustness tests: malformed wire input at every trust
// boundary, consensus verification at clients, failure injection, and
// crash-consistent recovery of the persistent sealed blob store.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "chaos/chaos.hpp"
#include "obs/trace.hpp"
#include "core/container.hpp"
#include "core/world.hpp"
#include "functions/library.hpp"
#include "functions/shard.hpp"
#include "store/store.hpp"
#include "tor/testbed.hpp"
#include "tor/wire.hpp"

namespace bc = bento::core;
namespace bch = bento::chaos;
namespace bf = bento::functions;
namespace bs = bento::store;
namespace bt = bento::tor;
namespace bu = bento::util;

namespace {

/// Topology seed for the durability-torture matrix: $BENTO_CHAOS_SEED when
/// set (CI sweeps 1..8), otherwise the test's own default — the recovery
/// contract is seed-independent because every append is synced.
std::uint64_t chaos_seed(std::uint64_t fallback) {
  const char* s = std::getenv("BENTO_CHAOS_SEED");
  if (s == nullptr || *s == '\0') return fallback;
  return std::strtoull(s, nullptr, 10);
}

/// Flight recorder for one durability test; on destruction writes the
/// capture — crash edges, recovery callbacks and the store.replay spans —
/// to $BENTO_CHAOS_ARTIFACT_DIR/<name>.jsonl if the test failed.
class RecorderScope {
 public:
  explicit RecorderScope(std::string name) : name_(std::move(name)) {
    bento::obs::recorder().enable(1 << 15);
  }

  ~RecorderScope() {
    const char* dir = std::getenv("BENTO_CHAOS_ARTIFACT_DIR");
    if (dir != nullptr && *dir != '\0' && ::testing::Test::HasFailure()) {
      std::ostringstream os;
      bento::obs::recorder().export_jsonl(os);
      std::ofstream out(std::string(dir) + "/" + name_ + ".jsonl");
      out << os.str();
    }
    bento::obs::recorder().disable();
  }

 private:
  std::string name_;
};

struct Deployed {
  std::shared_ptr<bc::BentoConnection> conn;
  std::optional<bc::TokenPair> tokens;
  std::string error;
  std::vector<bu::Bytes> outputs;
};

/// Connect + spawn + upload, draining the world between steps.
Deployed deploy_function(bc::BentoWorld& world, bc::BentoWorld::Client& client,
                         const std::string& box,
                         const bc::FunctionManifest& manifest,
                         const std::string& source) {
  Deployed d;
  client.bento->connect(box, [&](std::shared_ptr<bc::BentoConnection> conn) {
    d.conn = std::move(conn);
  });
  world.run();
  if (d.conn == nullptr) {
    d.error = "connect failed";
    return d;
  }
  d.conn->set_output_handler(
      [&d](bu::Bytes out) { d.outputs.push_back(std::move(out)); });
  bool ok = false;
  d.conn->spawn(manifest.image, [&](bool s, std::string err) {
    ok = s;
    if (!s) d.error = err;
  });
  world.run();
  if (!ok) return d;
  d.conn->upload(manifest, source, "", {},
                 [&](std::optional<bc::TokenPair> tokens, std::string err) {
                   d.tokens = std::move(tokens);
                   if (!err.empty()) d.error = err;
                 });
  world.run();
  return d;
}

/// Wires the crash (down edge) and recover_stores (restart edge) handlers
/// for one Bento box; replay reports land in `reports` keyed by
/// "<fingerprint>/<store name>" and `recoveries` counts callback firings.
void wire_durable_box(bch::ChaosEngine& engine, bc::BentoWorld& world,
                      const std::string& fingerprint, int& recoveries,
                      std::map<std::string, bs::ReplayReport>& reports) {
  bt::Router* router = world.bed().router_by_fingerprint(fingerprint);
  ASSERT_NE(router, nullptr);
  engine.set_node_handler(router->node(), [&world, fingerprint](bool up) {
    if (up) return;
    if (bc::BentoServer* server = world.server_for(fingerprint)) server->crash();
    world.bed().router_by_fingerprint(fingerprint)->crash();
  });
  engine.set_recovery_callback(
      router->node(), [&world, &recoveries, &reports, fingerprint] {
        ++recoveries;
        bc::BentoServer* server = world.server_for(fingerprint);
        ASSERT_NE(server, nullptr);
        for (auto& [name, report] : server->recover_stores()) {
          reports[fingerprint + "/" + name] = report;
        }
      });
}

/// The box's store-backed container named `name` (tests deploy one each).
bs::BlobStore* store_of(bc::BentoServer* server, const std::string& name) {
  if (server == nullptr) return nullptr;
  for (const bc::Container* container : server->containers()) {
    if (container->manifest().name == name && container->blob_store() != nullptr) {
      return container->blob_store();
    }
  }
  return nullptr;
}

}  // namespace

// The tentpole durability contract (DESIGN.md §15): a chaos crash+restart
// in the middle of a Dropbox/Shard workload must round-trip every stored
// byte through the sealed log — contents recover byte-identically
// (digest-witnessed), and a K-subset Shard fetch that leans on the
// recovered slot still decodes the original file.
TEST(Robustness, PersistentStoreSurvivesCrashRestart) {
  RecorderScope recorder("persistent_store_crash_restart");
  bc::BentoWorldOptions options;
  options.testbed.seed = chaos_seed(7);
  options.testbed.guards = 3;
  options.testbed.middles = 5;
  options.testbed.exits = 3;
  options.persistent_store = true;
  bc::BentoWorld world(options);
  world.start();
  bch::ChaosEngine engine(world.sim(), world.bed().net());
  engine.install({});

  auto client = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());
  ASSERT_GE(boxes.size(), 6u);

  // Shard assignments: one Dropbox per slot across boxes 0..4.
  bu::Rng rng(11);
  const bu::Bytes file = rng.bytes(20'000);
  bf::ShardClient shard_client(*client.bento, 3, 5);
  std::vector<bf::ShardClient::Placement> placements;
  bool store_ok = false;
  shard_client.store(file, {boxes[0], boxes[1], boxes[2], boxes[3], boxes[4]},
                     [&](bool ok, std::vector<bf::ShardClient::Placement> p) {
                       store_ok = ok;
                       placements = std::move(p);
                     });
  world.run();
  ASSERT_TRUE(store_ok);
  ASSERT_EQ(placements.size(), 5u);

  // Alice's own Dropbox workload on box 5.
  auto d = deploy_function(world, client, boxes[5], bf::dropbox_manifest(),
                           bf::dropbox_source());
  ASSERT_TRUE(d.tokens.has_value()) << d.error;
  const bu::Bytes payload = rng.bytes(12'000);
  bu::Bytes put = bu::to_bytes("PUT:");
  bu::append(put, payload);
  d.conn->invoke(d.tokens->invocation.bytes(), put);
  world.run();
  ASSERT_FALSE(d.outputs.empty());
  EXPECT_EQ(bu::to_string(d.outputs.back()), "OK");

  // Byte-identity witnesses over the pre-crash namespaces.
  bs::BlobStore* dbox = store_of(world.server_for(boxes[5]), "dropbox");
  ASSERT_NE(dbox, nullptr);
  const bento::crypto::Digest dropbox_digest = dbox->snapshot_digest();
  bs::BlobStore* slot1 = store_of(world.server_for(boxes[1]), "dropbox");
  ASSERT_NE(slot1, nullptr);
  const bento::crypto::Digest shard_digest = slot1->snapshot_digest();

  // Crash the Shard slot-1 box and the Dropbox box; both restart after 2 s
  // and must rebuild from durable media via the recovery callback.
  int recoveries = 0;
  std::map<std::string, bs::ReplayReport> reports;
  for (const std::string& fp : {boxes[1], boxes[5]}) {
    wire_durable_box(engine, world, fp, recoveries, reports);
    engine.crash_now(world.bed().router_by_fingerprint(fp)->node(),
                     bu::Duration::seconds(2));
  }
  world.run();
  EXPECT_EQ(engine.stats().crashes, 2u);
  EXPECT_EQ(engine.stats().restarts, 2u);
  ASSERT_EQ(recoveries, 2);
  ASSERT_EQ(reports.count(boxes[5] + "/dropbox"), 1u);
  ASSERT_EQ(reports.count(boxes[1] + "/dropbox"), 1u);
  // Every append was synced, so nothing is torn and nothing was dropped.
  EXPECT_FALSE(reports[boxes[5] + "/dropbox"].torn);
  EXPECT_GE(reports[boxes[5] + "/dropbox"].live_files, 1u);
  EXPECT_FALSE(reports[boxes[1] + "/dropbox"].torn);

  // A fresh Dropbox on box 5 adopts the recovered store: the stored bytes
  // come back unchanged and the namespace digest matches exactly.
  auto d2 = deploy_function(world, client, boxes[5], bf::dropbox_manifest(),
                            bf::dropbox_source());
  ASSERT_TRUE(d2.tokens.has_value()) << d2.error;
  d2.conn->invoke(d2.tokens->invocation.bytes(), bu::to_bytes("GET:"));
  world.run();
  ASSERT_FALSE(d2.outputs.empty());
  EXPECT_EQ(d2.outputs.back(), payload);
  bs::BlobStore* dbox2 = store_of(world.server_for(boxes[5]), "dropbox");
  ASSERT_NE(dbox2, nullptr);
  EXPECT_EQ(dbox2->snapshot_digest(), dropbox_digest);

  // Same on the shard box: the slot-1 assignment survived byte-identically…
  auto s2 = deploy_function(world, client, boxes[1], bf::dropbox_manifest(),
                            bf::dropbox_source());
  ASSERT_TRUE(s2.tokens.has_value()) << s2.error;
  bs::BlobStore* slot1b = store_of(world.server_for(boxes[1]), "dropbox");
  ASSERT_NE(slot1b, nullptr);
  EXPECT_EQ(slot1b->snapshot_digest(), shard_digest);

  // …and a K-subset fetch that includes the recovered slot decodes the file.
  std::vector<bf::ShardClient::Placement> subset = {placements[0], placements[1],
                                                    placements[2]};
  subset[1].invocation_token = s2.tokens->invocation.bytes();
  subset[1].shutdown_token = s2.tokens->shutdown.bytes();
  std::optional<bu::Bytes> fetched;
  shard_client.fetch(subset,
                     [&](std::optional<bu::Bytes> out) { fetched = std::move(out); });
  world.run();
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(*fetched, file);
}

// Torn/corrupt-tail recovery end to end: flip a byte in the newest durable
// frame, crash the box, and replay must keep the longest valid prefix — the
// previous version of the file — rather than trusting or rejecting the log
// wholesale.
TEST(Robustness, PersistentStoreCorruptTailRecoversLongestPrefix) {
  RecorderScope recorder("persistent_store_corrupt_tail");
  bc::BentoWorldOptions options;
  options.testbed.seed = chaos_seed(9);
  options.persistent_store = true;
  bc::BentoWorld world(options);
  world.start();
  bch::ChaosEngine engine(world.sim(), world.bed().net());
  engine.install({});

  auto client = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());
  ASSERT_FALSE(boxes.empty());
  auto d = deploy_function(world, client, boxes[0], bf::dropbox_manifest(),
                           bf::dropbox_source());
  ASSERT_TRUE(d.tokens.has_value()) << d.error;

  d.conn->invoke(d.tokens->invocation.bytes(), bu::to_bytes("PUT:first version"));
  world.run();
  d.conn->invoke(d.tokens->invocation.bytes(), bu::to_bytes("PUT:second version!"));
  world.run();
  ASSERT_GE(d.outputs.size(), 2u);
  EXPECT_EQ(bu::to_string(d.outputs.back()), "OK");

  // Media fault: a flipped byte inside the newest frame's sealed body.
  bs::Volume* volume = world.server_for(boxes[0])->volumes().find("dropbox");
  ASSERT_NE(volume, nullptr);
  volume->corrupt_tail(/*byte_from_end=*/10);

  int recoveries = 0;
  std::map<std::string, bs::ReplayReport> reports;
  wire_durable_box(engine, world, boxes[0], recoveries, reports);
  engine.crash_now(world.bed().router_by_fingerprint(boxes[0])->node(),
                   bu::Duration::seconds(2));
  world.run();
  ASSERT_EQ(recoveries, 1);
  ASSERT_EQ(reports.count(boxes[0] + "/dropbox"), 1u);
  EXPECT_TRUE(reports[boxes[0] + "/dropbox"].torn);
  EXPECT_GT(reports[boxes[0] + "/dropbox"].truncated_bytes, 0u);

  // The recovered namespace holds the longest valid prefix: version one.
  auto d2 = deploy_function(world, client, boxes[0], bf::dropbox_manifest(),
                            bf::dropbox_source());
  ASSERT_TRUE(d2.tokens.has_value()) << d2.error;
  d2.conn->invoke(d2.tokens->invocation.bytes(), bu::to_bytes("GET:"));
  world.run();
  ASSERT_FALSE(d2.outputs.empty());
  EXPECT_EQ(bu::to_string(d2.outputs.back()), "first version");
}

TEST(Robustness, RespawnInSameCascadeKeepsDurableStoreName) {
  // Regression: container destruction is deferred (+0us), so the store-name
  // claim must be released *eagerly* on removal — otherwise a shutdown
  // followed by a respawn of the same function within one event cascade is
  // uniquified onto an empty "dropbox#2" volume and silently loses its
  // durable state.
  RecorderScope recorder("persistent_store_respawn_same_cascade");
  bc::BentoWorldOptions options;
  options.testbed.seed = chaos_seed(13);
  options.persistent_store = true;
  bc::BentoWorld world(options);
  world.start();

  auto client = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());
  ASSERT_FALSE(boxes.empty());
  auto d = deploy_function(world, client, boxes[0], bf::dropbox_manifest(),
                           bf::dropbox_source());
  ASSERT_TRUE(d.tokens.has_value()) << d.error;
  d.conn->invoke(d.tokens->invocation.bytes(),
                 bu::to_bytes("PUT:durable payload"));
  world.run();
  ASSERT_FALSE(d.outputs.empty());
  EXPECT_EQ(bu::to_string(d.outputs.back()), "OK");

  bc::BentoServer* server = world.server_for(boxes[0]);
  ASSERT_NE(server, nullptr);
  bs::BlobStore* dbox = store_of(server, "dropbox");
  ASSERT_NE(dbox, nullptr);
  const bento::crypto::Digest digest = dbox->snapshot_digest();
  std::uint64_t id = 0;
  for (const bc::Container* container : server->containers()) {
    if (container->manifest().name == "dropbox") id = container->id();
  }
  ASSERT_NE(id, 0u);

  // Shutdown, then reopen the store before any deferred event has run —
  // exactly what a respawn arriving in the same delivery cascade does.
  server->container_died(id, "test: shutdown before respawn");
  std::string key;
  auto reopened = server->take_or_open_store("dropbox", &key);
  EXPECT_EQ(key, "dropbox");
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->snapshot_digest(), digest);

  // Draining the deferred destructor must not disturb the new claim, and
  // no uniquified ghost volume may have been created.
  world.run();
  for (const std::string& vol : server->volumes().keys()) {
    EXPECT_EQ(vol.find('#'), std::string::npos) << vol;
  }
  EXPECT_EQ(*reopened->get("drop.bin"), bu::to_bytes("durable payload"));
  server->release_store_name(key);
}

TEST(Robustness, RelaySurvivesGarbageMessages) {
  bt::Testbed bed;
  bed.finalize();
  bt::Router& relay = bed.router(0);
  auto client = bed.make_client("attacker");

  bu::Rng rng(1);
  // Random garbage of assorted sizes, including cell-sized and cell-marked.
  for (int i = 0; i < 50; ++i) {
    bu::Bytes junk = rng.bytes(rng.uniform(1, 600));
    bed.net().send(client->node(), relay.node(), std::move(junk));
  }
  bu::Bytes marked(bt::kCellLen + 1, 0);
  marked[0] = bt::kCellFrameMarker;  // valid frame, garbage cell contents
  bed.net().send(client->node(), relay.node(), marked);
  bed.run();

  // The relay still builds circuits afterwards.
  bt::CircuitOrigin* circ = nullptr;
  client->build_circuit({}, [&](bt::CircuitOrigin* c) { circ = c; });
  bed.run();
  EXPECT_NE(circ, nullptr);
}

TEST(Robustness, RelayCellsOnUnknownCircuitsIgnored) {
  bt::Testbed bed;
  bed.finalize();
  bt::Router& relay = bed.router(1);
  auto client = bed.make_client("attacker");

  bt::Cell cell;
  cell.circ_id = 0xdeadbeef;  // never created
  cell.command = bt::CellCommand::Relay;
  bed.net().send(client->node(), relay.node(), bt::frame_cell(cell));
  cell.command = bt::CellCommand::Destroy;
  bed.net().send(client->node(), relay.node(), bt::frame_cell(cell));
  bed.run();
  EXPECT_EQ(relay.counters().circuits_created, 0u);
}

TEST(Robustness, ClientRejectsForgedConsensus) {
  bt::Testbed bed;
  bed.finalize();
  // A consensus signed by a different "authority".
  bu::Rng rng(2);
  bt::DirectoryAuthority rogue(rng);
  auto forged = rogue.make_consensus(bed.sim().now());
  EXPECT_THROW(bt::OnionProxy(bed.sim(), bed.net(),
                              bento::sim::NodeSpec{"victim", 1e6, 1e6}, forged,
                              bed.directory().authority_key(), bu::Rng(3)),
               std::invalid_argument);
}

TEST(Robustness, BentoServerSurvivesProtocolGarbage) {
  bc::BentoWorld world;
  world.start();
  auto client = world.make_client("attacker");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());

  // Raw stream to the Bento port, feeding junk instead of framed messages.
  std::shared_ptr<bc::BentoConnection> conn;
  client.bento->connect(boxes[0], [&](std::shared_ptr<bc::BentoConnection> c) {
    conn = std::move(c);
  });
  world.run();
  ASSERT_NE(conn, nullptr);

  // Upload for a container that was never spawned.
  conn->upload(bc::FunctionManifest{}, "x = 1\n", "", {},
               [&](std::optional<bc::TokenPair> tokens, std::string error) {
                 EXPECT_FALSE(tokens.has_value());
                 EXPECT_FALSE(error.empty());
               });
  world.run();

  // Spawn an unknown image.
  bool spawn_ok = true;
  conn->spawn("windows-me", [&](bool ok, std::string) { spawn_ok = ok; });
  world.run();
  EXPECT_FALSE(spawn_ok);

  // Bogus shutdown token.
  bool shutdown_ok = true;
  conn->shutdown(bu::Bytes(bc::kTokenLen, 0xaa), [&](bool ok) { shutdown_ok = ok; });
  world.run();
  EXPECT_FALSE(shutdown_ok);

  // The server is still healthy.
  std::optional<bc::MiddleboxPolicy> policy;
  conn->get_policy([&](std::optional<bc::MiddleboxPolicy> p) { policy = std::move(p); });
  world.run();
  EXPECT_TRUE(policy.has_value());
  EXPECT_EQ(world.server_for(boxes[0])->live_containers(), 0u);
}

namespace {

bc::FunctionManifest echo_manifest() {
  bc::FunctionManifest manifest;
  manifest.name = "echo";
  manifest.image = bc::kImagePython;
  manifest.resources.memory_bytes = 8 << 20;
  manifest.resources.cpu_instructions = 1'000'000;
  manifest.resources.disk_bytes = 1 << 20;
  manifest.resources.network_bytes = 1 << 20;
  return manifest;
}

/// A fresh client deploys an echo function on `box` and gets its bytes back.
void expect_box_still_serves(bc::BentoWorld& world, const std::string& box) {
  auto alice = world.make_client("alice");
  Deployed d = deploy_function(world, alice, box, echo_manifest(),
                               "def on_message(msg):\n    api.send(msg)\n");
  ASSERT_TRUE(d.tokens.has_value()) << d.error;
  d.conn->invoke(d.tokens->invocation.bytes(), bu::to_bytes("still here"));
  world.run();
  ASSERT_EQ(d.outputs.size(), 1u);
  EXPECT_EQ(bu::to_string(d.outputs[0]), "still here");
}

/// Sends `attack` raw on a fresh stream to a Bento box: the sender alone
/// pays — one Error, its stream ended, one rejection counted — and the box
/// keeps serving everyone else.
void expect_stream_rejected(const bu::Bytes& attack) {
  bc::BentoWorld world;
  world.start();
  const std::string box = bc::BentoClient::find_boxes(world.bed().consensus())[0];
  const bt::RelayDescriptor* desc = world.bed().consensus().find(box);
  ASSERT_NE(desc, nullptr);
  bento::obs::Counter rejected = bento::obs::registry().counter("bento.server.rejected");
  const std::uint64_t rejected_before = rejected.value();

  auto attacker = world.make_client("attacker");
  bc::StreamFramer framer;
  int errors = 0;
  int others = 0;
  bool ended = false;
  bt::PathConstraints constraints;
  constraints.last_hop = box;
  attacker.proxy->build_circuit(constraints, [&](bt::CircuitOrigin* circ) {
    ASSERT_NE(circ, nullptr);
    bt::Stream::Callbacks cbs;
    cbs.on_data = [&](bu::ByteView d) {
      for (const bc::Message& m : framer.feed(d)) {
        ++(m.type == bc::MsgType::Error ? errors : others);
      }
    };
    cbs.on_end = [&ended] { ended = true; };
    const bt::Endpoint bento{desc->addr, bc::BentoClientConfig{}.bento_port};
    bt::Stream* stream = circ->open_stream(bento, std::move(cbs));
    stream->set_on_connected([stream, &attack] { stream->send(attack); });
  });
  world.run();  // returns: the frame never escapes the box as an exception
  EXPECT_EQ(errors, 1);
  EXPECT_EQ(others, 0);
  EXPECT_TRUE(ended);
  EXPECT_EQ(rejected.value() - rejected_before, 1u);

  expect_box_still_serves(world, box);
}

}  // namespace

// One malformed 5-byte frame (length 1, body 0xff).
TEST(Robustness, MalformedFrameRejectsOnlyThatStream) {
  expect_stream_rejected(bu::Bytes{0x00, 0x00, 0x00, 0x01, 0xff});
}

// A header announcing ~4 GiB, far over the box's largest message, is
// rejected on sight: the box does not buffer the rest of the stream
// waiting for that body.
TEST(Robustness, OversizedFrameHeaderRejectsOnlyThatStream) {
  bu::Bytes attack{0xff, 0xff, 0xff, 0xf0};
  attack.resize(4 + 1024, 0x41);
  expect_stream_rejected(attack);
}

// An upload nested far deeper than the parser's bound is an ordinary syntax
// error for its uploader, not a stack overflow that takes the box down.
TEST(Robustness, DeeplyNestedUploadIsASyntaxError) {
  bc::BentoWorld world;
  world.start();
  const std::string box = bc::BentoClient::find_boxes(world.bed().consensus())[0];
  auto mallory = world.make_client("mallory");
  const std::string nested =
      "x = " + std::string(100'000, '(') + "1" + std::string(100'000, ')') + "\n";
  Deployed d = deploy_function(world, mallory, box, echo_manifest(), nested);
  EXPECT_FALSE(d.tokens.has_value());
  EXPECT_EQ(d.error.rfind("install failed: syntax error", 0), 0u) << d.error;

  expect_box_still_serves(world, box);
}

// A Browser whose network budget is smaller than one page trips on a fetch
// chunk: that container dies with a resource-limit reason, the simulation
// carries on.
TEST(Robustness, ClearnetBudgetTripKillsOnlyTheContainer) {
  bc::BentoWorld world;
  world.start();
  world.bed().add_web_server(bt::parse_addr("93.184.216.34"), [](const std::string&) {
    return std::optional<bu::Bytes>(bu::Bytes(200'000, 'x'));
  });
  std::string box;
  for (const auto& relay : world.bed().consensus().relays) {
    if (relay.flags.exit) box = relay.fingerprint();
  }
  ASSERT_FALSE(box.empty());
  bento::obs::Counter trips = bento::obs::registry().counter("sandbox.resource_trips");

  bc::FunctionManifest manifest = bf::browser_manifest();
  manifest.resources.network_bytes = 10'000;
  auto client = world.make_client("alice");
  Deployed d = deploy_function(world, client, box, manifest, bf::browser_source());
  ASSERT_TRUE(d.tokens.has_value()) << d.error;
  bc::BentoServer* server = world.server_for(box);
  ASSERT_NE(server, nullptr);
  ASSERT_EQ(server->containers().size(), 1u);
  const bc::Container* container = server->containers()[0];
  const std::uint64_t trips_before = trips.value();

  d.conn->invoke(d.tokens->invocation.bytes(),
                 bu::to_bytes("http://93.184.216.34/index.html 0"));
  // Step until the box reclaims the container; its object lives until the
  // deferred destructor event, so the death reason is still readable.
  while (server->live_containers() == 1 && world.sim().step()) {
  }
  ASSERT_EQ(server->live_containers(), 0u);
  EXPECT_TRUE(container->dead());
  EXPECT_EQ(container->death_reason().rfind("resource limit", 0), 0u)
      << container->death_reason();
  world.run();
  EXPECT_EQ(trips.value() - trips_before, 1u);
  EXPECT_TRUE(d.outputs.empty());
}

TEST(Robustness, DoubleSpawnDoubleUploadHandled) {
  bc::BentoWorld world;
  world.start();
  auto client = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());
  std::shared_ptr<bc::BentoConnection> conn;
  client.bento->connect(boxes[0], [&](std::shared_ptr<bc::BentoConnection> c) {
    conn = std::move(c);
  });
  world.run();
  ASSERT_NE(conn, nullptr);

  bool ok1 = false;
  conn->spawn(bc::kImagePython, [&](bool ok, std::string) { ok1 = ok; });
  world.run();
  ASSERT_TRUE(ok1);

  bc::FunctionManifest manifest;
  manifest.name = "f";
  manifest.resources.memory_bytes = 1 << 20;
  manifest.resources.cpu_instructions = 1'000'000;
  manifest.resources.disk_bytes = 1 << 20;
  manifest.resources.network_bytes = 1 << 20;
  std::optional<bc::TokenPair> first, second;
  conn->upload(manifest, "def on_message(m):\n    api.send(m)\n", "", {},
               [&](std::optional<bc::TokenPair> t, std::string) { first = std::move(t); });
  world.run();
  ASSERT_TRUE(first.has_value());

  // Second upload into the same container is refused.
  conn->upload(manifest, "def on_message(m):\n    pass\n", "", {},
               [&](std::optional<bc::TokenPair> t, std::string e) {
                 second = std::move(t);
                 EXPECT_NE(e.find("already"), std::string::npos);
               });
  world.run();
  EXPECT_FALSE(second.has_value());

  // The original function still answers.
  std::vector<bu::Bytes> outputs;
  conn->set_output_handler([&](bu::Bytes out) { outputs.push_back(std::move(out)); });
  conn->invoke(first->invocation.bytes(), bu::to_bytes("still here"));
  world.run();
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(bu::to_string(outputs[0]), "still here");
}

TEST(Robustness, ClientStreamDeathOrphansFunctionSafely) {
  // The paper: "Bento functions fate-share with the middlebox nodes they
  // run on" — but a *client* vanishing must not hurt the function; it just
  // loses its reply channel until someone re-invokes.
  bc::BentoWorld world;
  world.start();
  auto alice = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());
  std::shared_ptr<bc::BentoConnection> conn;
  alice.bento->connect(boxes[0], [&](std::shared_ptr<bc::BentoConnection> c) {
    conn = std::move(c);
  });
  world.run();
  bool ok = false;
  std::optional<bc::TokenPair> tokens;
  conn->spawn(bc::kImagePython, [&](bool s, std::string) { ok = s; });
  world.run();
  ASSERT_TRUE(ok);
  bc::FunctionManifest manifest;
  manifest.name = "counter";
  manifest.required = {bento::sandbox::Syscall::Clock};
  manifest.resources.memory_bytes = 1 << 20;
  manifest.resources.cpu_instructions = 1'000'000;
  manifest.resources.disk_bytes = 1 << 20;
  manifest.resources.network_bytes = 1 << 20;
  conn->upload(manifest,
               "state = {\"n\": 0}\n"
               "def on_message(m):\n"
               "    state[\"n\"] += 1\n"
               "    api.send(str(state[\"n\"]))\n",
               "", {},
               [&](std::optional<bc::TokenPair> t, std::string) { tokens = std::move(t); });
  world.run();
  ASSERT_TRUE(tokens.has_value());

  conn->invoke(tokens->invocation.bytes(), {});
  world.run();
  conn->close();  // Alice vanishes mid-life
  world.run();
  EXPECT_EQ(world.server_for(boxes[0])->live_containers(), 1u);  // still alive

  // Bob picks the function up with the shared token; state survived.
  auto bob = world.make_client("bob");
  std::vector<bu::Bytes> outputs;
  bob.bento->connect(boxes[0], [&](std::shared_ptr<bc::BentoConnection> c) {
    ASSERT_NE(c, nullptr);
    c->set_output_handler([&](bu::Bytes out) { outputs.push_back(std::move(out)); });
    c->invoke(tokens->invocation.bytes(), {});
  });
  world.run();
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(bu::to_string(outputs[0]), "2");
}

TEST(Robustness, MidTransferCircuitDestroyCleansUpExit) {
  bt::TestbedOptions options;
  options.relay_bandwidth = 400e3;  // slow enough that 2 MB takes ~6 s
  bt::Testbed bed(options);
  bed.finalize();
  bu::Rng rng(9);
  const bu::Bytes big = rng.bytes(2'000'000);
  bed.add_web_server(bt::parse_addr("93.184.216.34"),
                     [&big](const std::string&) { return big; });
  auto client = bed.make_client("alice");
  bt::PathConstraints c;
  c.exit_to = bt::Endpoint{bt::parse_addr("93.184.216.34"), 80};
  bt::CircuitOrigin* circ = nullptr;
  client->build_circuit(c, [&](bt::CircuitOrigin* built) { circ = built; });
  bed.run();
  ASSERT_NE(circ, nullptr);

  std::size_t received = 0;
  bt::Stream::Callbacks cbs;
  cbs.on_data = [&](bu::ByteView d) { received += d.size(); };
  bt::Stream* stream = circ->open_stream(*c.exit_to, std::move(cbs));
  stream->set_on_connected([stream] { stream->send(bu::to_bytes("GET /big\n")); });
  // Let a few hundred KB through, then kill the circuit.
  bed.run_for(bu::Duration::seconds(2.5));
  ASSERT_GT(received, 0u);
  ASSERT_LT(received, big.size());
  circ->destroy();
  client->forget(circ);
  bed.run();  // must quiesce: no runaway retransmission or leaked pumping
  EXPECT_LT(received, big.size());
}

TEST(Robustness, RelayCrashMidHandshakeDoesNotLeak) {
  // Crash every relay while a circuit build is in flight (the CREATE has
  // been sent, no hop has answered yet). The half-open circuit must fail
  // exactly once via the build timeout and release all of its state —
  // LeakSanitizer verifies nothing (circuit, stream, timer token) leaks.
  bt::TestbedOptions options;
  options.seed = 21;
  bt::Testbed bed(options);
  bed.finalize();
  bento::chaos::ChaosEngine engine(bed.sim(), bed.net());
  engine.install({});

  auto client = bed.make_client("alice");
  client->set_build_timeout(bu::Duration::seconds(2));
  int done_calls = 0;
  bt::CircuitOrigin* got = reinterpret_cast<bt::CircuitOrigin*>(1);
  client->build_circuit({}, [&](bt::CircuitOrigin* circ) {
    ++done_calls;
    got = circ;
  });
  // 30 ms in: past the CREATE send, well before the >= 3 RTT build finishes.
  bed.sim().after(bu::Duration::millis(30), [&bed, &engine] {
    for (std::size_t i = 0; i < bed.router_count(); ++i) {
      bt::Router& router = bed.router(i);
      engine.set_node_handler(router.node(), [&router](bool up) {
        if (!up) router.crash();
      });
      engine.crash_now(router.node());
    }
  });
  bed.run();
  EXPECT_EQ(done_calls, 1);
  EXPECT_EQ(got, nullptr);
  EXPECT_EQ(client->open_circuits(), 0u);
  EXPECT_EQ(engine.stats().crashes, bed.router_count());
}

TEST(Robustness, ClosedConnectionIsFreed) {
  // Regression for the BentoConnection self-capture leak class (bentolint
  // BL103): stream callbacks used to hold strong refs to the connection and
  // the client's keep-alive anchor was never pruned, so a closed connection
  // outlived its circuit indefinitely.
  bc::BentoWorld world;
  world.start();
  auto client = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());
  ASSERT_FALSE(boxes.empty());

  std::weak_ptr<bc::BentoConnection> weak;
  {
    std::shared_ptr<bc::BentoConnection> conn;
    client.bento->connect(boxes[0], [&](std::shared_ptr<bc::BentoConnection> c) {
      conn = std::move(c);
    });
    world.run();
    ASSERT_NE(conn, nullptr);
    EXPECT_EQ(client.bento->live_connections(), 1u);
    weak = conn;
    conn->close();
    EXPECT_TRUE(conn->closed());
    world.run();
  }  // the caller's strong ref is gone; only the client anchor remains

  client.bento->prune_closed();
  EXPECT_EQ(client.bento->live_connections(), 0u);
  // Nothing else — no stream callback, no pending_ handler — keeps it alive.
  EXPECT_TRUE(weak.expired());

  // A later connect() prunes implicitly: open a second session and check the
  // anchor count reflects only the live one.
  std::shared_ptr<bc::BentoConnection> conn2;
  client.bento->connect(boxes[0], [&](std::shared_ptr<bc::BentoConnection> c) {
    conn2 = std::move(c);
  });
  world.run();
  ASSERT_NE(conn2, nullptr);
  EXPECT_EQ(client.bento->live_connections(), 1u);
  EXPECT_TRUE(conn2->open());
}
