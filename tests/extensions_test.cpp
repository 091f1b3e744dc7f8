// Tests for the paper's §9.4 future-work items implemented as functions
// (multipath routing) and additional safety properties: the Stem firewall,
// aggregate-resource flooding (§6.2), reply-handle routing, and cover
// traffic as observed on the wire.
#include <gtest/gtest.h>

#include "core/stemfw.hpp"
#include "core/world.hpp"
#include "functions/library.hpp"
#include "functions/multipath.hpp"
#include "wf/trace.hpp"
#include "world_fixture.hpp"

namespace bc = bento::core;
namespace bf = bento::functions;
namespace bt = bento::tor;
namespace bu = bento::util;
namespace bw = bento::wf;

TEST(Multipath, FetchesOverParallelCircuits) {
  bc::BentoWorldOptions options;
  options.testbed.guards = 3;
  options.testbed.middles = 6;
  options.testbed.exits = 2;
  bc::BentoWorld world(options);
  bf::register_multipath(world.natives());
  world.start();

  bu::Rng rng(5);
  const bu::Bytes body = rng.bytes(400'000);
  world.bed().add_web_server(bt::parse_addr("93.184.216.34"),
                             [&body](const std::string&) { return body; });

  auto client = world.make_client("alice", 4e6);
  bf::MultipathFetcher fetcher(*client.bento, 3);
  std::optional<bf::MultipathFetcher::Result> result;
  fetcher.fetch(exit_box(world), "http://93.184.216.34/big",
                [&] { return world.sim().now().seconds(); },
                [&](bf::MultipathFetcher::Result r) { result = std::move(r); });
  world.run();

  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->ok);
  EXPECT_EQ(result->body, body);  // reassembled in order
  // All three circuits carried data.
  ASSERT_EQ(result->per_path_bytes.size(), 3u);
  for (std::size_t bytes : result->per_path_bytes) EXPECT_GT(bytes, 100'000u);
}

TEST(Multipath, SinglePathDegeneratesGracefully) {
  bc::BentoWorld world;
  bf::register_multipath(world.natives());
  world.start();
  world.bed().add_web_server(bt::parse_addr("93.184.216.34"),
                             [](const std::string&) {
                               return bu::to_bytes("small body");
                             });
  auto client = world.make_client("alice");
  bf::MultipathFetcher fetcher(*client.bento, 1);
  std::optional<bf::MultipathFetcher::Result> result;
  fetcher.fetch(exit_box(world), "http://93.184.216.34/x",
                [&] { return world.sim().now().seconds(); },
                [&](bf::MultipathFetcher::Result r) { result = std::move(r); });
  world.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok);
  EXPECT_EQ(bu::to_string(result->body), "small body");
}

TEST(Multipath, FetchFailureReported) {
  bc::BentoWorld world;
  bf::register_multipath(world.natives());
  world.start();  // no web server
  auto client = world.make_client("alice");
  bf::MultipathFetcher fetcher(*client.bento, 2);
  std::optional<bf::MultipathFetcher::Result> result;
  fetcher.fetch(exit_box(world), "http://93.184.216.34/x",
                [&] { return world.sim().now().seconds(); },
                [&](bf::MultipathFetcher::Result r) { result = std::move(r); });
  world.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok);
}

TEST(ReplyHandles, ScriptServesTwoClientsOnTheirOwnStreams) {
  bc::BentoWorld world;
  world.start();
  auto alice = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());

  // Subscribers register; a "publish" fans out to every registered channel.
  const std::string source = R"(
state = {"subs": []}
def on_message(msg):
    m = str(msg)
    if m == "sub":
        state["subs"].append(api.handle())
        api.send("subscribed")
    elif m.startswith("pub "):
        for h in state["subs"]:
            api.send_to(h, sub(m, 4))
)";
  Deployed d(world, alice, boxes[0], [] {
    bc::FunctionManifest m;
    m.name = "pubsub";
    m.resources.memory_bytes = 8 << 20;
    m.resources.cpu_instructions = 10'000'000;
    m.resources.disk_bytes = 1 << 20;
    m.resources.network_bytes = 8 << 20;
    return m;
  }(), source);
  ASSERT_TRUE(d.tokens.has_value()) << d.error;

  // Bob subscribes over his own connection.
  auto bob = world.make_client("bob");
  std::vector<bu::Bytes> bob_outputs;
  std::shared_ptr<bc::BentoConnection> bob_conn;
  bob.bento->connect(boxes[0], [&](std::shared_ptr<bc::BentoConnection> c) {
    bob_conn = std::move(c);
  });
  world.run();
  ASSERT_NE(bob_conn, nullptr);
  bob_conn->set_output_handler([&](bu::Bytes out) { bob_outputs.push_back(std::move(out)); });
  bob_conn->invoke(d.tokens->invocation.bytes(), bu::to_bytes("sub"));
  d.conn->invoke(d.tokens->invocation.bytes(), bu::to_bytes("sub"));
  world.run();

  // Alice publishes; both subscribers receive on their own streams.
  d.conn->invoke(d.tokens->invocation.bytes(), bu::to_bytes("pub breaking-news"));
  world.run();
  ASSERT_FALSE(bob_outputs.empty());
  EXPECT_EQ(bu::to_string(bob_outputs.back()), "breaking-news");
  EXPECT_EQ(bu::to_string(d.outputs.back()), "breaking-news");
}

TEST(StemFirewall, CircuitCapEnforced) {
  bc::BentoWorld world;
  world.start();
  bento::sandbox::SyscallFilter filter(
      {bento::sandbox::Syscall::TorCircuit, bento::sandbox::Syscall::TorDirectory});
  bc::StemSession session(world.server(0).stem_proxy(), world.bed().directory(),
                          filter, /*max_circuits=*/2);
  int built = 0;
  for (int i = 0; i < 2; ++i) {
    session.build_circuit({}, [&](bc::StemSession::CircuitHandle h) {
      if (h != 0) ++built;
    });
    world.run();
  }
  EXPECT_EQ(built, 2);
  EXPECT_EQ(session.owned_circuits(), 2u);
  EXPECT_THROW(session.build_circuit({}, [](bc::StemSession::CircuitHandle) {}),
               bento::sandbox::ResourceExceeded);
  // Destroying frees a slot.
  session.destroy_circuit(1);
  world.run();
  EXPECT_EQ(session.owned_circuits(), 1u);
}

TEST(StemFirewall, DeniedClassesThrow) {
  bc::BentoWorld world;
  world.start();
  bento::sandbox::SyscallFilter filter({bento::sandbox::Syscall::TorCircuit});
  bc::StemSession session(world.server(0).stem_proxy(), world.bed().directory(),
                          filter);
  EXPECT_THROW(session.consensus(), bento::sandbox::SyscallDenied);       // TorDirectory
  EXPECT_THROW(session.create_hidden_service(1), bento::sandbox::SyscallDenied);
  // Foreign/unknown circuit handles yield nullptr streams.
  EXPECT_EQ(session.open_stream(42, {1, 80}, {}), nullptr);
}

TEST(ResourceFlood, AggregateCapProtectsTheBox) {
  // Paper §6.2: flooding a box with functions must not starve the host;
  // the aggregate accountant fails newcomers instead.
  bc::BentoWorldOptions options;
  bc::BentoWorld world(options);
  world.start();
  auto client = world.make_client("attacker");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());

  // Each instance asks for the full per-function memory cap; the default
  // aggregate cap (512 MB) admits only so many.
  const std::string hog = R"(
data = []
def on_install(args):
    for i in range(3000):
        data.append("xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")
)";
  int installed = 0, refused = 0;
  for (int i = 0; i < 12; ++i) {
    bc::FunctionManifest manifest;
    manifest.name = "hog" + std::to_string(i);
    manifest.resources.memory_bytes = 60 << 20;
    manifest.resources.cpu_instructions = 50'000'000;
    manifest.resources.disk_bytes = 1 << 20;
    manifest.resources.network_bytes = 1 << 20;
    Deployed d(world, client, boxes[0], manifest, hog);
    if (d.tokens.has_value()) {
      ++installed;
    } else {
      ++refused;
    }
  }
  EXPECT_GT(installed, 0);
  // The server survives and still answers policy queries.
  std::optional<bc::MiddleboxPolicy> policy;
  std::shared_ptr<bc::BentoConnection> conn;
  client.bento->connect(boxes[0], [&](std::shared_ptr<bc::BentoConnection> c) {
    conn = std::move(c);
  });
  world.run();
  ASSERT_NE(conn, nullptr);
  conn->get_policy([&](std::optional<bc::MiddleboxPolicy> p) { policy = std::move(p); });
  world.run();
  EXPECT_TRUE(policy.has_value());
}

TEST(CoverTraffic, ConstantRateVisibleOnTheWire) {
  // §9.1: the wire at the victim's access link shows periodic fixed-size
  // bursts while Cover runs — the anonymity-set padding the paper wants.
  bc::BentoWorld world;
  world.start();
  auto client = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());
  Deployed d(world, client, boxes[0], bf::cover_manifest(), bf::cover_source());
  ASSERT_TRUE(d.tokens.has_value()) << d.error;

  bw::TraceRecorder recorder(world.sim(), world.bed().net(), client.proxy->node());
  recorder.start();
  d.conn->invoke(d.tokens->invocation.bytes(), bu::to_bytes("start 1.0"));
  world.run_for(bu::Duration::seconds(12));
  bw::Trace trace = recorder.stop(0);

  // Roughly one inbound burst per second, all equal-sized.
  int inbound = 0;
  for (const auto& ev : trace.events) inbound += !ev.outgoing;
  EXPECT_GE(inbound, 10);
  EXPECT_LE(inbound, 30);  // ~2 cells per junk payload
  // Inter-burst spacing clusters near 1 s.
  std::vector<double> arrivals;
  for (const auto& ev : trace.events) {
    if (!ev.outgoing) arrivals.push_back(ev.time_seconds);
  }
  int near_one_second = 0;
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    const double gap = arrivals[i] - arrivals[i - 1];
    if (gap > 0.8 && gap < 1.2) ++near_one_second;
  }
  EXPECT_GE(near_one_second, 8);
}
