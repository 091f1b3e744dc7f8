// Adversarial/robustness tests: malformed wire input at every trust
// boundary, consensus verification at clients, failure injection, and
// crash-consistent recovery of the persistent sealed blob store.
#include <gtest/gtest.h>

#include <algorithm>

#include "chaos/chaos.hpp"
#include "obs/trace.hpp"
#include "core/container.hpp"
#include "core/world.hpp"
#include "functions/library.hpp"
#include "functions/shard.hpp"
#include "store/store.hpp"
#include "tee/conclave.hpp"
#include "tor/testbed.hpp"
#include "tor/wire.hpp"
#include "world_fixture.hpp"

namespace bc = bento::core;
namespace bch = bento::chaos;
namespace bf = bento::functions;
namespace bs = bento::store;
namespace bt = bento::tor;
namespace bu = bento::util;

namespace {

/// The bytes replay has cut from torn log tails so far, on every box.
bento::obs::Counter truncated_bytes() {
  return bento::obs::registry().counter("store.replay.truncated_bytes");
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

/// The volume the store of `d`'s container is mounted on, or null.
bs::Volume* volume_of(bc::BentoServer& server, const Deployed& d) {
  for (const bc::Container* container : server.containers()) {
    if (container->tokens().invocation.bytes() == d.tokens->invocation.bytes() &&
        container->blob_store() != nullptr) {
      return &container->blob_store()->volume();
    }
  }
  return nullptr;
}

}  // namespace

// The tentpole durability contract (DESIGN.md §15): a chaos crash+restart
// in the middle of a Dropbox/Shard workload must round-trip every stored
// byte through the sealed log — contents recover byte-identically
// (digest-witnessed) when a fresh Dropbox mounts the volume, and a K-subset
// Shard fetch that leans on the recovered slot still decodes the original
// file. The durability tests take their topology seed from chaos_seed():
// the contract holds for any seed because every append is synced.
TEST(Robustness, PersistentStoreSurvivesCrashRestart) {
  RecorderScope recorder("persistent_store_crash_restart");
  bc::BentoWorldOptions options;
  options.testbed.seed = chaos_seed(7);
  options.testbed.guards = 3;
  options.testbed.middles = 5;
  options.testbed.exits = 3;
  options.server.persistent_store = true;
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
  Deployed d(world, client, boxes[5], bf::dropbox_manifest(), bf::dropbox_source());
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
  // with nothing but their volumes.
  const std::uint64_t truncated_before = truncated_bytes().value();
  for (const std::string& fp : {boxes[1], boxes[5]}) {
    ASSERT_NO_FATAL_FAILURE(wire_box_crash(engine, world, fp));
    engine.crash_now(world.bed().router_by_fingerprint(fp)->node(),
                     bu::Duration::seconds(2));
  }
  world.run();
  EXPECT_EQ(engine.stats().crashes, 2u);
  EXPECT_EQ(engine.stats().restarts, 2u);

  // A fresh Dropbox on box 5 mounts and replays the volume: the stored bytes
  // come back unchanged and the namespace digest matches exactly.
  Deployed d2(world, client, boxes[5], bf::dropbox_manifest(), bf::dropbox_source());
  ASSERT_TRUE(d2.tokens.has_value()) << d2.error;
  bs::BlobStore* dbox2 = store_of(world.server_for(boxes[5]), "dropbox");
  ASSERT_NE(dbox2, nullptr);
  EXPECT_GE(dbox2->live_files(), 1u);
  EXPECT_EQ(dbox2->snapshot_digest(), dropbox_digest);
  d2.conn->invoke(d2.tokens->invocation.bytes(), bu::to_bytes("GET:"));
  world.run();
  ASSERT_FALSE(d2.outputs.empty());
  EXPECT_EQ(d2.outputs.back(), payload);

  // Same on the shard box: the slot-1 assignment survived byte-identically…
  Deployed s2(world, client, boxes[1], bf::dropbox_manifest(), bf::dropbox_source());
  ASSERT_TRUE(s2.tokens.has_value()) << s2.error;
  bs::BlobStore* slot1b = store_of(world.server_for(boxes[1]), "dropbox");
  ASSERT_NE(slot1b, nullptr);
  EXPECT_EQ(slot1b->snapshot_digest(), shard_digest);
  // Every append was synced, so neither replay cut a torn tail.
  EXPECT_EQ(truncated_bytes().value() - truncated_before, 0u);

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
  options.server.persistent_store = true;
  bc::BentoWorld world(options);
  world.start();
  bch::ChaosEngine engine(world.sim(), world.bed().net());
  engine.install({});

  auto client = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());
  ASSERT_FALSE(boxes.empty());
  Deployed d(world, client, boxes[0], bf::dropbox_manifest(), bf::dropbox_source());
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

  const std::uint64_t truncated_before = truncated_bytes().value();
  ASSERT_NO_FATAL_FAILURE(wire_box_crash(engine, world, boxes[0]));
  engine.crash_now(world.bed().router_by_fingerprint(boxes[0])->node(),
                   bu::Duration::seconds(2));
  world.run();
  ASSERT_EQ(engine.stats().restarts, 1u);

  // The remount cuts the corrupt frame and keeps the longest valid prefix:
  // version one.
  Deployed d2(world, client, boxes[0], bf::dropbox_manifest(), bf::dropbox_source());
  ASSERT_TRUE(d2.tokens.has_value()) << d2.error;
  EXPECT_GT(truncated_bytes().value() - truncated_before, 0u);
  d2.conn->invoke(d2.tokens->invocation.bytes(), bu::to_bytes("GET:"));
  world.run();
  ASSERT_FALSE(d2.outputs.empty());
  EXPECT_EQ(bu::to_string(d2.outputs.back()), "first version");
}

// A delete is as durable as a write: after DEL, GET answers MISSING, and a
// Dropbox respawned under the same name after a crash still does — its
// mount's replay ends on the delete's tombstone, not on the PUT.
TEST(Robustness, PersistentStoreDeleteSurvivesCrashRestart) {
  RecorderScope recorder("persistent_store_delete_crash_restart");
  bc::BentoWorldOptions options;
  options.testbed.seed = chaos_seed(11);
  options.server.persistent_store = true;
  bc::BentoWorld world(options);
  world.start();
  bch::ChaosEngine engine(world.sim(), world.bed().net());
  engine.install({});

  auto client = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());
  ASSERT_FALSE(boxes.empty());
  Deployed d(world, client, boxes[0], bf::dropbox_manifest(), bf::dropbox_source());
  ASSERT_TRUE(d.tokens.has_value()) << d.error;
  for (const char* command : {"PUT:deleted before the crash", "DEL:", "GET:"}) {
    d.conn->invoke(d.tokens->invocation.bytes(), bu::to_bytes(command));
    world.run();
  }
  ASSERT_EQ(d.outputs.size(), 3u);
  EXPECT_EQ(bu::to_string(d.outputs[1]), "OK");
  EXPECT_EQ(bu::to_string(d.outputs[2]), "MISSING");

  const std::uint64_t truncated_before = truncated_bytes().value();
  ASSERT_NO_FATAL_FAILURE(wire_box_crash(engine, world, boxes[0]));
  engine.crash_now(world.bed().router_by_fingerprint(boxes[0])->node(),
                   bu::Duration::seconds(2));
  world.run();
  ASSERT_EQ(engine.stats().restarts, 1u);

  Deployed d2(world, client, boxes[0], bf::dropbox_manifest(), bf::dropbox_source());
  ASSERT_TRUE(d2.tokens.has_value()) << d2.error;
  bs::BlobStore* remounted = store_of(world.server_for(boxes[0]), "dropbox");
  ASSERT_NE(remounted, nullptr);
  EXPECT_EQ(remounted->live_files(), 0u);
  EXPECT_EQ(truncated_bytes().value() - truncated_before, 0u);
  d2.conn->invoke(d2.tokens->invocation.bytes(), bu::to_bytes("GET:"));
  world.run();
  ASSERT_EQ(d2.outputs.size(), 1u);
  EXPECT_EQ(bu::to_string(d2.outputs[0]), "MISSING");
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

// Overwrites turn the sealed segments into garbage; each fs.write arms the
// background compaction tick, which rewrites them. The log shrinks and the
// Dropbox still answers with the last PUT.
TEST(Robustness, PersistentStoreCompactsOverwrittenDropboxInTheBackground) {
  bc::BentoWorldOptions options;
  options.server.persistent_store = true;
  bc::BentoWorld world(options);
  world.start();
  auto client = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());
  Deployed d(world, client, boxes[0], bf::dropbox_manifest(), bf::dropbox_source());
  ASSERT_TRUE(d.tokens.has_value()) << d.error;
  bs::BlobStore* store = store_of(world.server_for(boxes[0]), "dropbox");
  ASSERT_NE(store, nullptr);

  const bento::obs::Counter runs = bento::obs::registry().counter("store.compact.runs");
  const std::uint64_t runs_before = runs.value();
  bu::Rng rng(21);
  bu::Bytes last;
  std::size_t peak_log_bytes = 0;
  bool shrank = false;
  // A segment rolls every 256 KiB, so five 48 KiB PUTs fill one and the
  // sixth seals it with every record in it overwritten.
  for (int i = 0; i < 12; ++i) {
    last = rng.bytes(48 << 10);
    bu::Bytes put = bu::to_bytes("PUT:");
    bu::append(put, last);
    d.conn->invoke(d.tokens->invocation.bytes(), put);
    world.run();
    ASSERT_EQ(bu::to_string(d.outputs.back()), "OK");
    if (store->log_bytes() < peak_log_bytes) shrank = true;
    peak_log_bytes = std::max(peak_log_bytes, store->log_bytes());
  }
  EXPECT_GT(runs.value(), runs_before);
  EXPECT_GT(store->compactions(), 0u);
  EXPECT_TRUE(shrank);

  d.conn->invoke(d.tokens->invocation.bytes(), bu::to_bytes("GET:"));
  world.run();
  EXPECT_EQ(d.outputs.back(), last);
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

/// A fresh client deploys an echo function on `box` and gets its bytes back.
void expect_box_still_serves(bc::BentoWorld& world, const std::string& box) {
  auto alice = world.make_client("alice");
  Deployed d(world, alice, box, echo_manifest(bc::kImagePython),
             "def on_message(msg):\n    api.send(msg)\n");
  ASSERT_TRUE(d.tokens.has_value()) << d.error;
  d.conn->invoke(d.tokens->invocation.bytes(), bu::to_bytes("still here"));
  world.run();
  ASSERT_EQ(d.outputs.size(), 1u);
  EXPECT_EQ(bu::to_string(d.outputs[0]), "still here");
}

/// One message a box sent back, copied out of the framer that parsed it.
struct RawMessage {
  bc::MsgType type;
  std::string text;
};

/// What a box sent back on one raw stream.
struct RawReply {
  std::vector<RawMessage> messages;
  bool ended = false;
};

/// Sends `bytes` as they are on a fresh stream from `client` to `box` and
/// runs the world to quiescence. The stream callbacks share the reply, so
/// late events on that stream touch nothing the caller freed.
RawReply send_raw(bc::BentoWorld& world, bc::BentoWorld::Client& client,
                  const std::string& box, const bu::Bytes& bytes) {
  const bt::RelayDescriptor* desc = world.bed().consensus().find(box);
  EXPECT_NE(desc, nullptr);
  if (desc == nullptr) return {};
  auto reply = std::make_shared<RawReply>();
  auto framer = std::make_shared<bc::StreamFramer>();
  bt::PathConstraints constraints;
  constraints.last_hop = box;
  client.proxy->build_circuit(constraints, [&](bt::CircuitOrigin* circ) {
    ASSERT_NE(circ, nullptr);
    bt::Stream::Callbacks cbs;
    cbs.on_data = [reply, framer](bu::ByteView d) {
      for (const bc::Message& m : framer->feed(d)) {
        reply->messages.push_back({m.type, std::string(m.text)});
      }
    };
    cbs.on_end = [reply] { reply->ended = true; };
    const bt::Endpoint bento{desc->addr, bc::BentoClientConfig{}.bento_port};
    bt::Stream* stream = circ->open_stream(bento, std::move(cbs));
    stream->set_on_connected([stream, bytes] { stream->send(bytes); });
  });
  world.run();
  return *reply;
}

/// Sends `attack` raw on a fresh stream to a Bento box: the sender alone
/// pays — one Error, its stream ended, one rejection counted — and the box
/// keeps serving everyone else.
void expect_stream_rejected(const bu::Bytes& attack) {
  bc::BentoWorld world;
  world.start();
  const std::string box = bc::BentoClient::find_boxes(world.bed().consensus())[0];
  bento::obs::Counter rejected = bento::obs::registry().counter("bento.server.rejected");
  const std::uint64_t rejected_before = rejected.value();

  auto attacker = world.make_client("attacker");
  // world.run() returns: the frame never escapes the box as an exception.
  const RawReply reply = send_raw(world, attacker, box, attack);
  ASSERT_EQ(reply.messages.size(), 1u);
  EXPECT_EQ(reply.messages[0].type, bc::MsgType::Error);
  EXPECT_TRUE(reply.ended);
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
namespace {

/// Stands in for the Bento server on a box's Bento port: answers the first
/// bytes a client sends with `reply`.
class FakeBox {
 public:
  explicit FakeBox(bu::Bytes reply) : reply_(std::move(reply)) {}
  bt::StreamAcceptor acceptor() {
    return [this](bt::Stream& stream) {
      stream.set_on_data([this, &stream](bu::ByteView) { stream.send(reply_); });
      return true;
    };
  }

 private:
  bu::Bytes reply_;
};

/// A box replying `reply` to a real BentoClient costs that client its
/// connection, never the simulation: the pending request fails, the
/// connection closes and one client-side rejection is counted.
void expect_client_rejects(const bu::Bytes& reply) {
  bc::BentoWorld world;
  world.start();
  const std::string box = bc::BentoClient::find_boxes(world.bed().consensus())[0];
  bt::Router* relay = world.bed().router_by_fingerprint(box);
  ASSERT_NE(relay, nullptr);
  ASSERT_TRUE(bc::BentoClient::advertised_policy(relay->descriptor()).has_value());
  FakeBox fake(reply);
  relay->bind_local_app(bc::BentoClientConfig{}.bento_port, fake.acceptor());
  bento::obs::Counter rejected = bento::obs::registry().counter("bento.client.rejected");
  const std::uint64_t rejected_before = rejected.value();

  auto alice = world.make_client("alice");
  std::shared_ptr<bc::BentoConnection> conn;
  alice.bento->connect(box, [&](std::shared_ptr<bc::BentoConnection> c) { conn = std::move(c); });
  world.run();
  ASSERT_NE(conn, nullptr);
  bool answered = false;
  bool got_policy = true;
  conn->get_policy([&](std::optional<bc::MiddleboxPolicy> p) {
    answered = true;
    got_policy = p.has_value();
  });
  world.run();  // returns: the box's bytes never escape the client as an exception
  EXPECT_TRUE(answered);
  EXPECT_FALSE(got_policy);
  EXPECT_TRUE(conn->closed());
  EXPECT_FALSE(conn->open());
  EXPECT_EQ(rejected.value() - rejected_before, 1u);
}

}  // namespace

// The client-side mirror of MalformedFrameRejectsOnlyThatStream.
TEST(Robustness, ClientRejectsMalformedFrameFromBox) {
  expect_client_rejects(bu::Bytes{0x00, 0x00, 0x00, 0x01, 0xff});
}

// A header announcing ~4 GiB is over the box's advertised per-function
// memory, so the client rejects it on sight instead of buffering toward it.
TEST(Robustness, ClientRejectsOversizedFrameHeaderFromBox) {
  bu::Bytes reply{0xff, 0xff, 0xff, 0xf0};
  reply.resize(4 + 1024, 0x41);
  expect_client_rejects(reply);
}

TEST(Robustness, DeeplyNestedUploadIsASyntaxError) {
  bc::BentoWorld world;
  world.start();
  const std::string box = bc::BentoClient::find_boxes(world.bed().consensus())[0];
  auto mallory = world.make_client("mallory");
  const std::string nested =
      "x = " + std::string(100'000, '(') + "1" + std::string(100'000, ')') + "\n";
  Deployed d(world, mallory, box, echo_manifest(bc::kImagePython), nested);
  EXPECT_FALSE(d.tokens.has_value());
  EXPECT_EQ(d.error.rfind("install failed: syntax error", 0), 0u) << d.error;

  expect_box_still_serves(world, box);
}

// A numeric literal too large for its type is a syntax error for its
// uploader, like any other malformed source.
TEST(Robustness, OutOfRangeLiteralUploadIsASyntaxError) {
  bc::BentoWorld world;
  world.start();
  const std::string box = bc::BentoClient::find_boxes(world.bed().consensus())[0];
  auto mallory = world.make_client("mallory");
  Deployed d(world, mallory, box, echo_manifest(bc::kImagePython),
             "x = 99999999999999999999\n");
  EXPECT_FALSE(d.tokens.has_value());
  EXPECT_EQ(d.error.rfind("install failed: syntax error", 0), 0u) << d.error;

  expect_box_still_serves(world, box);
}

// Container destruction is deferred (+0 us), but a removed container leaves
// the server's table at once, and that table is the claim set: a shutdown
// and a respawn of the same function handled in one event cascade mount the
// same volume, not an empty "dropbox#2".
TEST(Robustness, PersistentStoreRespawnInSameCascadeKeepsItsName) {
  RecorderScope recorder("persistent_store_respawn_same_cascade");
  bc::BentoWorldOptions options;
  options.testbed.seed = chaos_seed(13);
  options.server.persistent_store = true;
  bc::BentoWorld world(options);
  world.start();

  auto client = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());
  ASSERT_FALSE(boxes.empty());
  Deployed d(world, client, boxes[0], bf::dropbox_manifest(), bf::dropbox_source());
  ASSERT_TRUE(d.tokens.has_value()) << d.error;
  d.conn->invoke(d.tokens->invocation.bytes(), bu::to_bytes("PUT:durable payload"));
  world.run();
  ASSERT_FALSE(d.outputs.empty());
  EXPECT_EQ(bu::to_string(d.outputs.back()), "OK");

  bc::BentoServer* server = world.server_for(boxes[0]);
  ASSERT_NE(server, nullptr);
  bs::BlobStore* dbox = store_of(server, "dropbox");
  ASSERT_NE(dbox, nullptr);
  const bento::crypto::Digest digest = dbox->snapshot_digest();

  // An empty python container waits for the respawn's upload.
  bool spawned = false;
  d.conn->spawn(bc::kImagePython, [&](bool ok, std::string) { spawned = ok; });
  world.run();
  ASSERT_TRUE(spawned);
  std::uint64_t respawn_id = 0;
  for (const bc::Container* container : server->containers()) {
    if (!container->installed()) respawn_id = container->id();
  }
  ASSERT_NE(respawn_id, 0u);

  // One cell carries the Dropbox's shutdown and the respawn's upload, so
  // the box handles both in one delivery.
  bc::Message shutdown;
  shutdown.type = bc::MsgType::Shutdown;
  shutdown.token = d.tokens->shutdown.bytes();
  bc::FunctionManifest manifest = bf::dropbox_manifest();
  manifest.image = bc::kImagePython;
  bc::UploadBody body;
  body.manifest = manifest.serialize();
  body.source = "def on_message(msg):\n    api.send(fs.read(\"drop.bin\"))\n";
  const bu::Bytes body_bytes = body.serialize();
  bc::Message upload;
  upload.type = bc::MsgType::Upload;
  upload.container_id = respawn_id;
  upload.blob = body_bytes;
  bu::Bytes both = bc::StreamFramer::frame(shutdown);
  bu::append(both, bc::StreamFramer::frame(upload));
  ASSERT_LE(both.size(), bt::kRelayDataMax);
  const RawReply reply = send_raw(world, client, boxes[0], both);
  ASSERT_EQ(reply.messages.size(), 2u);
  EXPECT_EQ(reply.messages[0].type, bc::MsgType::Ok);
  EXPECT_EQ(reply.messages[1].type, bc::MsgType::UploadReply) << reply.messages[1].text;

  bs::BlobStore* respawned = store_of(server, "dropbox");
  ASSERT_NE(respawned, nullptr);
  EXPECT_EQ(&respawned->volume(), server->volumes().find("dropbox"));
  EXPECT_EQ(respawned->snapshot_digest(), digest);
  EXPECT_EQ(*respawned->get("drop.bin"), bu::to_bytes("durable payload"));
  for (const std::string& vol : server->volumes().keys()) {
    EXPECT_EQ(vol.find('#'), std::string::npos) << vol;
  }
}

// Two live Dropboxes of one name on one box mount "dropbox" and
// "dropbox#2". Once the first shuts down its claim is gone, and the next
// Dropbox mounts "dropbox" and serves the first one's file.
TEST(Robustness, PersistentStoreSecondLiveDropboxMountsItsOwnVolume) {
  RecorderScope recorder("persistent_store_second_live_dropbox");
  bc::BentoWorldOptions options;
  options.testbed.seed = chaos_seed(17);
  options.server.persistent_store = true;
  bc::BentoWorld world(options);
  world.start();
  const std::string box = bc::BentoClient::find_boxes(world.bed().consensus())[0];
  bc::BentoServer* server = world.server_for(box);
  ASSERT_NE(server, nullptr);

  auto alice = world.make_client("alice");
  auto bob = world.make_client("bob");
  Deployed first(world, alice, box, bf::dropbox_manifest(), bf::dropbox_source());
  Deployed second(world, bob, box, bf::dropbox_manifest(), bf::dropbox_source());
  ASSERT_TRUE(first.tokens.has_value()) << first.error;
  ASSERT_TRUE(second.tokens.has_value()) << second.error;
  first.conn->invoke(first.tokens->invocation.bytes(), bu::to_bytes("PUT:alice's file"));
  second.conn->invoke(second.tokens->invocation.bytes(), bu::to_bytes("PUT:bob's file"));
  world.run();
  ASSERT_EQ(first.outputs.size(), 1u);
  ASSERT_EQ(second.outputs.size(), 1u);
  ASSERT_NE(server->volumes().find("dropbox#2"), nullptr);
  EXPECT_EQ(volume_of(*server, first), server->volumes().find("dropbox"));
  EXPECT_EQ(volume_of(*server, second), server->volumes().find("dropbox#2"));

  bool shut_down = false;
  first.conn->shutdown(first.tokens->shutdown.bytes(), [&](bool ok) { shut_down = ok; });
  world.run();
  ASSERT_TRUE(shut_down);

  auto carol = world.make_client("carol");
  Deployed third(world, carol, box, bf::dropbox_manifest(), bf::dropbox_source());
  ASSERT_TRUE(third.tokens.has_value()) << third.error;
  EXPECT_EQ(volume_of(*server, third), server->volumes().find("dropbox"));
  third.conn->invoke(third.tokens->invocation.bytes(), bu::to_bytes("GET:"));
  second.conn->invoke(second.tokens->invocation.bytes(), bu::to_bytes("GET:"));
  world.run();
  ASSERT_EQ(third.outputs.size(), 1u);
  EXPECT_EQ(bu::to_string(third.outputs[0]), "alice's file");
  ASSERT_EQ(second.outputs.size(), 2u);
  EXPECT_EQ(bu::to_string(second.outputs[1]), "bob's file");
}

// A volume whose log another machine sealed (a disk moved between boxes)
// fails closed at the mount: that Dropbox's install fails with the store
// error, the box keeps serving, and nothing escapes world.run().
TEST(Robustness, PersistentStoreSealedUnderAnotherKeyFailsOnlyThatInstall) {
  RecorderScope recorder("persistent_store_foreign_key");
  bc::BentoWorldOptions options;
  options.testbed.seed = chaos_seed(19);
  options.server.persistent_store = true;
  bc::BentoWorld world(options);
  world.start();
  const std::string box = bc::BentoClient::find_boxes(world.bed().consensus())[0];
  bc::BentoServer* server = world.server_for(box);
  ASSERT_NE(server, nullptr);
  {
    bu::Rng rng(3);
    bento::tee::Platform elsewhere(99, 2, rng);
    bs::BlobStore foreign(server->volumes().open("dropbox"),
                          bento::tee::make_store_sealer(
                              elsewhere, bc::BentoServer::runtime_measurement(), "dropbox"));
    foreign.put("drop.bin", bu::to_bytes("sealed elsewhere"));
  }

  auto alice = world.make_client("alice");
  Deployed d(world, alice, box, bf::dropbox_manifest(), bf::dropbox_source());
  EXPECT_FALSE(d.tokens.has_value());
  EXPECT_EQ(d.error.rfind("install failed: store: ", 0), 0u) << d.error;
  EXPECT_NE(d.error.find("sealing key mismatch"), std::string::npos) << d.error;
  EXPECT_EQ(server->live_containers(), 0u);

  expect_box_still_serves(world, box);
}

// The operator flips one stored byte of an SGX Dropbox's file. The next GET
// kills that container with an Error naming the authentication failure
// (never a MISSING that reads like an expired file); a second Dropbox on
// the same box keeps serving.
TEST(Robustness, TamperedFsProtectFileKillsOnlyThatDropbox) {
  bc::BentoWorld world;
  world.start();
  const std::string box = bc::BentoClient::find_boxes(world.bed().consensus())[0];
  auto alice = world.make_client("alice");
  auto bob = world.make_client("bob");
  Deployed victim(world, alice, box, bf::dropbox_manifest(), bf::dropbox_source());
  Deployed other(world, bob, box, bf::dropbox_manifest(), bf::dropbox_source());
  ASSERT_TRUE(victim.tokens.has_value()) << victim.error;
  ASSERT_TRUE(other.tokens.has_value()) << other.error;
  victim.conn->invoke(victim.tokens->invocation.bytes(), bu::to_bytes("PUT:alice's"));
  other.conn->invoke(other.tokens->invocation.bytes(), bu::to_bytes("PUT:bob's"));
  world.run();
  ASSERT_EQ(victim.outputs.size(), 1u);
  ASSERT_EQ(other.outputs.size(), 1u);

  bc::BentoServer* server = world.server_for(box);
  ASSERT_NE(server, nullptr);
  ASSERT_EQ(server->live_containers(), 2u);
  bu::Bytes* stored = nullptr;
  for (const bc::Container* container : server->containers()) {
    if (container->tokens().invocation.bytes() == victim.tokens->invocation.bytes()) {
      stored = container->stored_bytes("drop.bin");
    }
  }
  ASSERT_NE(stored, nullptr);
  (*stored)[0] ^= 0x01;

  // The GET rides a raw stream: BentoConnection drops an Error it did not
  // ask for, and this test is about what the box answers.
  const bu::Bytes get_payload = bu::to_bytes("GET:");
  bc::Message get;
  get.type = bc::MsgType::Invoke;
  get.token = victim.tokens->invocation.bytes();
  get.blob = get_payload;
  const RawReply reply = send_raw(world, alice, box, bc::StreamFramer::frame(get));
  ASSERT_EQ(reply.messages.size(), 1u);
  EXPECT_EQ(reply.messages[0].type, bc::MsgType::Error);
  EXPECT_NE(reply.messages[0].text.find("failed authentication"), std::string::npos)
      << reply.messages[0].text;
  EXPECT_EQ(server->live_containers(), 1u);

  other.conn->invoke(other.tokens->invocation.bytes(), bu::to_bytes("GET:"));
  world.run();
  ASSERT_EQ(other.outputs.size(), 2u);
  EXPECT_EQ(bu::to_string(other.outputs[1]), "bob's");
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
  const std::string box = exit_box(world);
  ASSERT_FALSE(box.empty());
  bento::obs::Counter trips = bento::obs::registry().counter("sandbox.resource_trips");

  bc::FunctionManifest manifest = bf::browser_manifest();
  manifest.resources.network_bytes = 10'000;
  auto client = world.make_client("alice");
  Deployed d(world, client, box, manifest, bf::browser_source());
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
  bc::FunctionManifest manifest;
  manifest.name = "counter";
  manifest.required = {bento::sandbox::Syscall::Clock};
  manifest.resources.memory_bytes = 1 << 20;
  manifest.resources.cpu_instructions = 1'000'000;
  manifest.resources.disk_bytes = 1 << 20;
  manifest.resources.network_bytes = 1 << 20;
  Deployed d(world, alice, boxes[0], manifest,
             "state = {\"n\": 0}\n"
             "def on_message(m):\n"
             "    state[\"n\"] += 1\n"
             "    api.send(str(state[\"n\"]))\n");
  ASSERT_TRUE(d.tokens.has_value()) << d.error;

  d.conn->invoke(d.tokens->invocation.bytes(), {});
  world.run();
  d.conn->close();  // Alice vanishes mid-life
  world.run();
  EXPECT_EQ(world.server_for(boxes[0])->live_containers(), 1u);  // still alive

  // Bob picks the function up with the shared token; state survived.
  auto bob = world.make_client("bob");
  std::vector<bu::Bytes> outputs;
  bob.bento->connect(boxes[0], [&](std::shared_ptr<bc::BentoConnection> c) {
    ASSERT_NE(c, nullptr);
    c->set_output_handler([&](bu::Bytes out) { outputs.push_back(std::move(out)); });
    c->invoke(d.tokens->invocation.bytes(), {});
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
