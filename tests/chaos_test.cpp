// Tier-1 chaos suite (DESIGN.md §9): deterministic fault injection and
// end-to-end recovery — seeded replay, circuit rebuild around crashed
// relays, LoadBalancer replica failover, Shard K-of-N reconstruction, and
// client retry exhaustion.
//
// Seed matrix: the scenarios read BENTO_CHAOS_SEED (default 42) so CI can
// sweep seeds; every assertion below holds for *any* seed — seed-specific
// behaviour is only ever compared against a rerun of the same seed. On
// failure, each test dumps its flight-recorder capture to
// $BENTO_CHAOS_ARTIFACT_DIR/<test>.jsonl for offline replay (EXPERIMENTS.md
// has the recipe).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/chaos.hpp"
#include "core/world.hpp"
#include "functions/loadbalancer.hpp"
#include "functions/shard.hpp"
#include "obs/trace.hpp"
#include "world_fixture.hpp"

namespace bc = bento::core;
namespace bch = bento::chaos;
namespace bf = bento::functions;
namespace bo = bento::obs;
namespace bu = bento::util;

namespace {

/// The scenarios' seed when BENTO_CHAOS_SEED is not set.
constexpr std::uint64_t kDefaultSeed = 42;

bc::FunctionManifest chaos_echo_manifest() {
  bc::FunctionManifest manifest;
  manifest.name = "chaos-echo";
  manifest.image = bc::kImagePython;
  manifest.resources.memory_bytes = 8 << 20;
  manifest.resources.cpu_instructions = 10'000'000;
  manifest.resources.disk_bytes = 4 << 20;
  manifest.resources.network_bytes = 32 << 20;
  return manifest;
}

/// One full traced scenario under a busy fault plan; returns the
/// flight-recorder capture. Byte-identical across reruns of the same seed.
std::string traced_chaos_jsonl(std::uint64_t seed) {
  std::string out;
  bo::recorder().enable(1 << 15);
  {
    bc::BentoWorldOptions options;
    options.testbed.seed = seed;
    bc::BentoWorld world(options);
    world.start();
    bch::ChaosEngine engine(world.sim(), world.bed().net());
    wire_box_crash(engine, world, world.bed().router(5).fingerprint());

    bch::ChaosPlan plan;
    plan.seed = seed;
    // Mild everywhere-loss plus duplication and reordering jitter.
    plan.links.push_back({bch::kAnyNode, bch::kAnyNode, /*drop_p=*/0.02,
                          /*dup_p=*/0.01, /*jitter_p=*/0.05, bu::Duration::millis(15)});
    // Two middles lose sight of each other for a while.
    plan.partitions.push_back({world.bed().router(3).node(), world.bed().router(4).node(),
                               bu::Time::from_seconds(5), bu::Duration::seconds(3)});
    // One middle dies and comes back.
    plan.crashes.push_back({world.bed().router(5).node(), bu::Time::from_seconds(8),
                            bu::Duration::seconds(4)});
    // A guard's access link degrades.
    plan.throttles.push_back({world.bed().router(0).node(), /*scale=*/0.2,
                              bu::Time::from_seconds(2), bu::Duration::seconds(5)});
    // App-level fault: a hostile co-tenant thrashes box 0's EPC.
    plan.app_faults.push_back({bu::Time::from_seconds(6), /*ref=*/7,
                               [&world] { world.server(0).epc().thrash(32 << 20); }});
    engine.install(std::move(plan));

    auto client = world.make_client("alice");
    auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());
    Deployed d(world, client, boxes.back(), chaos_echo_manifest(), kEchoSource);
    if (d.tokens.has_value()) {
      for (int i = 0; i < 2; ++i) {
        client.bento->invoke_reliable(boxes.back(), d.tokens->invocation.bytes(),
                                      bu::to_bytes("m" + std::to_string(i)),
                                      [](bool, bu::Bytes, int) {});
        world.run();
      }
    }
    std::ostringstream os;
    bo::recorder().export_jsonl(os);
    out = os.str();
  }
  bo::recorder().disable();
  return out;
}

}  // namespace

// A chaos run is a pure function of (seed, plan): the same seed replays a
// byte-identical flight-recorder capture, and a different seed does not.
TEST(Chaos, SeededDeterminism) {
  const std::uint64_t seed = chaos_seed(kDefaultSeed);
  const std::string first = traced_chaos_jsonl(seed);
  const std::string second = traced_chaos_jsonl(seed);
  EXPECT_EQ(first, second) << "chaos run is not deterministic for seed " << seed;
  EXPECT_NE(first.find("\"ev\":\"chaos.fault\""), std::string::npos);

  const std::string other = traced_chaos_jsonl(seed + 1);
  EXPECT_NE(first, other) << "plan seed does not influence the fault sequence";
}

// A relay crash mid-deployment: the forced build through the dead relay
// fails with the hop attributed, the rebuild path kicks in, and a reliable
// invocation completes around the corpse.
TEST(Chaos, CircuitRebuildOnRelayCrash) {
  RecorderScope rec("CircuitRebuildOnRelayCrash");
  bc::BentoWorldOptions options;
  options.testbed.seed = chaos_seed(kDefaultSeed);
  bc::BentoWorld world(options);
  world.start();
  bch::ChaosEngine engine(world.sim(), world.bed().net());
  engine.install({});

  auto client = world.make_client("alice");
  const auto& relays = world.bed().consensus().relays;
  // Target an exit-flagged box; victim is a flagless middle off the deploy
  // path; keep exactly one guard eligible so the forced path is unique.
  const std::string box = exit_box(world);
  ASSERT_FALSE(box.empty());
  Deployed d(world, client, box, chaos_echo_manifest(), kEchoSource);
  ASSERT_TRUE(d.tokens.has_value()) << d.error;
  const auto deploy_path = d.conn->path_fingerprints();

  std::string victim, keep_guard;
  for (const auto& r : relays) {
    const std::string fp = r.fingerprint();
    const bool on_path =
        std::find(deploy_path.begin(), deploy_path.end(), fp) != deploy_path.end();
    if (victim.empty() && !r.flags.guard && !r.flags.exit && !on_path) victim = fp;
    if (keep_guard.empty() && r.flags.guard && fp != box) keep_guard = fp;
  }
  ASSERT_FALSE(victim.empty());
  ASSERT_FALSE(keep_guard.empty());

  wire_box_crash(engine, world, victim);
  engine.crash_now(world.bed().router_by_fingerprint(victim)->node());
  world.run();
  EXPECT_EQ(engine.stats().crashes, 1u);

  // Force the next build through the dead relay: exclude everything except
  // one guard, the victim, and the box. The build must time out, attribute
  // the victim, and the rebuild attempt (victim now excluded) has no
  // eligible middle left — connect fails cleanly.
  std::vector<std::string> excluded;
  for (const auto& r : relays) {
    const std::string fp = r.fingerprint();
    if (fp != keep_guard && fp != victim && fp != box) excluded.push_back(fp);
  }
  client.proxy->set_build_timeout(bu::Duration::seconds(2));
  bool forced_done = false;
  std::shared_ptr<bc::BentoConnection> forced;
  client.bento->connect(box, excluded, [&](std::shared_ptr<bc::BentoConnection> conn) {
    forced_done = true;
    forced = std::move(conn);
  });
  world.run();
  EXPECT_TRUE(forced_done);
  EXPECT_EQ(forced, nullptr);
  EXPECT_EQ(client.proxy->last_failed_hop(), victim);

  // Unconstrained reliable invocation routes around the dead relay and
  // reaches the container deployed before the crash.
  bool ok = false;
  int attempts = 0;
  bu::Bytes output;
  client.bento->invoke_reliable(box, d.tokens->invocation.bytes(), bu::to_bytes("ping"),
                                [&](bool o, bu::Bytes out, int a) {
                                  ok = o;
                                  output = std::move(out);
                                  attempts = a;
                                });
  world.run();
  EXPECT_TRUE(ok);
  EXPECT_GE(attempts, 1);
  EXPECT_EQ(bu::to_string(output), "echo: ping");

  const std::string jsonl = rec.jsonl();
  EXPECT_NE(jsonl.find("\"ev\":\"chaos.fault\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"ev\":\"circuit.rebuild\""), std::string::npos);
}

// The LoadBalancer health-checks remote replicas; when one's box dies the
// front end detects the missed pongs, declares it dead, and re-spawns the
// replica from the stored image on the next candidate box.
TEST(Chaos, LoadBalancerFailoverOnReplicaCrash) {
  RecorderScope rec("LoadBalancerFailoverOnReplicaCrash");
  bc::BentoWorldOptions options;
  options.testbed.seed = chaos_seed(kDefaultSeed);
  options.testbed.guards = 3;
  options.testbed.middles = 6;
  options.testbed.exits = 2;
  options.testbed.relay_bandwidth = 4e6;
  bc::BentoWorld world(options);
  bf::register_loadbalancer(world.natives());
  world.start();
  bch::ChaosEngine engine(world.sim(), world.bed().net());
  engine.install({});

  auto operator_client = world.make_client("operator");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());
  ASSERT_GE(boxes.size(), 6u);

  bf::LoadBalancerConfig config;
  config.intro_points = 2;
  config.max_clients_per_replica = 1;
  config.content_bytes = 200'000;
  config.replica_boxes = {boxes[2], boxes[3]};
  config.health_check_seconds = 2;
  config.health_max_misses = 2;

  // Health ticks recur forever, so settle with bounded run_for from the
  // install (upload) step onward.
  const std::string lb_box = boxes[1];
  auto settle = [&world] { world.run_for(bu::Duration::seconds(30)); };
  Deployed d(world, operator_client, lb_box, bf::loadbalancer_manifest(), "",
             "loadbalancer", config.serialize(), settle);
  ASSERT_TRUE(d.tokens.has_value()) << d.error;

  d.conn->invoke(d.tokens->invocation.bytes(), bu::to_bytes("onion"));
  world.run_for(bu::Duration::seconds(10));
  ASSERT_FALSE(d.outputs.empty());
  const std::string onion = bu::to_string(d.outputs.back());
  ASSERT_FALSE(onion.empty());

  // Two concurrent downloads with a 1-client watermark force a remote
  // replica onto boxes[2].
  const auto downloads = start_hs_downloads(world, onion, 2);
  world.run_for(bu::Duration::seconds(90));
  for (const auto& dl : downloads) EXPECT_TRUE(dl->done);

  // Kill the replica's box: router and server go down together.
  wire_box_crash(engine, world, boxes[2]);
  engine.crash_now(world.bed().router_by_fingerprint(boxes[2])->node());
  world.run_for(bu::Duration::seconds(240));

  // The front end must have failed the replica over to boxes[3]; ask it
  // over a fresh (reliable) connection — the operator's original circuit
  // may itself have crossed the dead box.
  bool ok = false;
  bu::Bytes status;
  operator_client.bento->invoke_reliable(lb_box, d.tokens->invocation.bytes(),
                                         bu::to_bytes("status"),
                                         [&](bool o, bu::Bytes out, int) {
                                           ok = o;
                                           status = std::move(out);
                                         });
  world.run_for(bu::Duration::seconds(60));
  ASSERT_TRUE(ok);
  EXPECT_NE(bu::to_string(status).find("failovers:1"), std::string::npos)
      << "status: " << bu::to_string(status);

  const std::string jsonl = rec.jsonl();
  EXPECT_NE(jsonl.find("\"ev\":\"lb.failover\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"ev\":\"chaos.fault\""), std::string::npos);
}

// Shard survives losing a Dropbox: repair() probes the placements,
// reconstructs from the K survivors, re-seeds the lost shard onto a spare,
// and a K-subset fetch that includes the repaired slot round-trips.
TEST(Chaos, ShardRepairAfterDropboxLoss) {
  RecorderScope rec("ShardRepairAfterDropboxLoss");
  bc::BentoWorldOptions options;
  options.testbed.seed = chaos_seed(kDefaultSeed);
  options.testbed.guards = 3;
  options.testbed.middles = 5;
  options.testbed.exits = 3;
  bc::BentoWorld world(options);
  world.start();
  bch::ChaosEngine engine(world.sim(), world.bed().net());
  engine.install({});

  auto client = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());
  ASSERT_GE(boxes.size(), 6u);

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

  // Box 1 dies with its Dropbox.
  wire_box_crash(engine, world, boxes[1]);
  engine.crash_now(world.bed().router_by_fingerprint(boxes[1])->node());
  world.run();
  EXPECT_EQ(engine.stats().crashes, 1u);

  bool repair_ok = false;
  std::vector<bf::ShardClient::Placement> updated;
  shard_client.repair(placements, {boxes[5]},
                      [&](bool ok, std::vector<bf::ShardClient::Placement> p) {
                        repair_ok = ok;
                        updated = std::move(p);
                      });
  world.run();
  ASSERT_TRUE(repair_ok);
  ASSERT_EQ(updated.size(), 5u);
  EXPECT_EQ(updated[1].box, boxes[5]);
  EXPECT_EQ(updated[0].box, boxes[0]);
  EXPECT_EQ(updated[4].box, boxes[4]);

  // Fetch from exactly K slots including the repaired one.
  std::vector<bf::ShardClient::Placement> subset(updated.begin(), updated.begin() + 3);
  std::optional<bu::Bytes> fetched;
  shard_client.fetch(subset, [&](std::optional<bu::Bytes> out) { fetched = std::move(out); });
  world.run();
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(*fetched, file);

  const std::string jsonl = rec.jsonl();
  EXPECT_NE(jsonl.find("\"ev\":\"shard.repair\""), std::string::npos);
}

// A permanently dead target box: every attempt fails, backoff runs its
// course, and the client reports failure after exactly kMaxAttempts.
TEST(Chaos, ClientRetryUntilDeadline) {
  RecorderScope rec("ClientRetryUntilDeadline");
  bc::BentoWorldOptions options;
  options.testbed.seed = chaos_seed(kDefaultSeed);
  bc::BentoWorld world(options);
  world.start();
  bch::ChaosEngine engine(world.sim(), world.bed().net());
  engine.install({});

  const std::string victim = exit_box(world);
  ASSERT_FALSE(victim.empty());
  wire_box_crash(engine, world, victim);
  engine.crash_now(world.bed().router_by_fingerprint(victim)->node());
  world.run();

  auto proxy = world.bed().make_client("carol");
  proxy->set_build_timeout(bu::Duration::seconds(2));
  bc::BentoClient client(*proxy, world.client_config());

  bool done = false;
  bool ok = true;
  int attempts = 0;
  client.invoke_reliable(victim, bu::to_bytes("no-such-token"), bu::to_bytes("x"),
                         [&](bool o, bu::Bytes, int a) {
                           done = true;
                           ok = o;
                           attempts = a;
                         });
  world.run();
  ASSERT_TRUE(done);
  EXPECT_FALSE(ok);
  EXPECT_EQ(attempts, bc::kMaxAttempts);

  const std::string jsonl = rec.jsonl();
  EXPECT_NE(jsonl.find("\"ev\":\"client.retry\""), std::string::npos);
}
