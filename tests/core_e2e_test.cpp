// Bento end-to-end: client discovers a box over the consensus, spawns a
// container (attested for python-op-sgx), uploads a BentoScript function,
// invokes it, and shuts it down — all over simulated Tor circuits.
#include <gtest/gtest.h>

#include "core/world.hpp"
#include "obs/span.hpp"
#include "util/rng.hpp"
#include "world_fixture.hpp"

namespace bc = bento::core;
namespace bo = bento::obs;
namespace bt = bento::tor;
namespace bu = bento::util;

namespace {
/// The manifest most cases here deploy under: clock, randomness and the
/// three file syscalls, on `image`.
bc::FunctionManifest test_fn_manifest(const std::string& image) {
  bc::FunctionManifest manifest;
  manifest.name = "test-fn";
  manifest.image = image;
  manifest.required = {bento::sandbox::Syscall::Clock,
                       bento::sandbox::Syscall::Random,
                       bento::sandbox::Syscall::FsRead,
                       bento::sandbox::Syscall::FsWrite,
                       bento::sandbox::Syscall::FsDelete};
  manifest.resources.memory_bytes = 8 << 20;
  manifest.resources.cpu_instructions = 10'000'000;
  manifest.resources.disk_bytes = 4 << 20;
  manifest.resources.network_bytes = 32 << 20;
  return manifest;
}

/// Claims no syscalls; 1 MiB each of memory, disk and network.
bc::FunctionManifest sneaky_manifest() {
  bc::FunctionManifest manifest;
  manifest.name = "sneaky";
  manifest.resources.memory_bytes = 1 << 20;
  manifest.resources.cpu_instructions = 1'000'000;
  manifest.resources.disk_bytes = 1 << 20;
  manifest.resources.network_bytes = 1 << 20;
  return manifest;
}

/// May open clearnet connections.
bc::FunctionManifest fetcher_manifest() {
  bc::FunctionManifest manifest;
  manifest.name = "fetcher";
  manifest.required = {bento::sandbox::Syscall::NetConnect};
  manifest.resources.memory_bytes = 8 << 20;
  manifest.resources.cpu_instructions = 10'000'000;
  manifest.resources.disk_bytes = 1 << 20;
  manifest.resources.network_bytes = 32 << 20;
  return manifest;
}

/// May deploy functions on other boxes (bento.deploy).
bc::FunctionManifest composer_manifest() {
  bc::FunctionManifest manifest;
  manifest.name = "composer";
  manifest.required = {bento::sandbox::Syscall::SpawnFunction};
  manifest.resources.memory_bytes = 8 << 20;
  manifest.resources.cpu_instructions = 20'000'000;
  manifest.resources.disk_bytes = 1 << 20;
  manifest.resources.network_bytes = 32 << 20;
  return manifest;
}

/// Span begins of `stage` the flight recorder holds.
std::size_t spans_begun(bo::Stage stage) {
  std::size_t n = 0;
  for (const bo::TraceEvent& e : bo::recorder().events()) {
    if (e.kind == bo::Ev::SpanBegin &&
        (e.b & 0xffffffffu) == static_cast<std::uint64_t>(stage)) {
      ++n;
    }
  }
  return n;
}

/// What one install() reported, and what crossed the Bento stream for it.
struct InstallOutcome {
  int callbacks = 0;
  std::optional<bc::TokenPair> tokens;
  std::string error;
  std::size_t uploads_sent = 0;  // client.upload spans the client opened
  std::size_t box_messages = 0;  // server.handle spans: messages the box took
};

/// Connects to `box`, then installs the echo function under `manifest` with
/// the flight recorder on.
InstallOutcome install_traced(bc::BentoWorld& world, bc::BentoClient& client,
                              const std::string& box,
                              const bc::FunctionManifest& manifest) {
  InstallOutcome out;
  std::shared_ptr<bc::BentoConnection> conn;
  client.connect(box, [&](std::shared_ptr<bc::BentoConnection> c) { conn = std::move(c); });
  world.run();
  EXPECT_NE(conn, nullptr);
  if (conn == nullptr) return out;
  bo::recorder().enable();
  conn->install(manifest, kEchoSource, "", {},
                [&](std::optional<bc::TokenPair> tokens, std::string error) {
                  ++out.callbacks;
                  out.tokens = std::move(tokens);
                  out.error = std::move(error);
                });
  world.run();
  out.uploads_sent = spans_begun(bo::Stage::ClientUpload);
  out.box_messages = spans_begun(bo::Stage::ServerHandle);
  bo::recorder().disable();
  return out;
}
}  // namespace

TEST(BentoE2E, DiscoverBoxesAndPolicies) {
  bc::BentoWorld world;
  world.start();
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());
  EXPECT_EQ(boxes.size(), world.bed().router_count());
  // Advertised policy is parseable from the descriptor.
  const auto* desc = world.bed().consensus().find(boxes[0]);
  ASSERT_NE(desc, nullptr);
  auto policy = bc::BentoClient::advertised_policy(*desc);
  ASSERT_TRUE(policy.has_value());
  EXPECT_TRUE(policy->offers_image(bc::kImagePython));
}

TEST(BentoE2E, GetPolicyOverTor) {
  bc::BentoWorld world;
  world.start();
  auto client = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());

  std::optional<bc::MiddleboxPolicy> policy;
  client.bento->connect(boxes[0], [&](std::shared_ptr<bc::BentoConnection> conn) {
    ASSERT_NE(conn, nullptr);
    conn->get_policy([&](std::optional<bc::MiddleboxPolicy> p) { policy = std::move(p); });
  });
  world.run();
  ASSERT_TRUE(policy.has_value());
  EXPECT_TRUE(policy->allowed.allows(bento::sandbox::Syscall::FsWrite));
}

TEST(BentoE2E, UploadInvokeEchoPythonImage) {
  bc::BentoWorld world;
  world.start();
  auto client = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());

  Deployed s(world, client, boxes[1], test_fn_manifest(bc::kImagePython), kEchoSource);
  ASSERT_TRUE(s.tokens.has_value()) << s.error;
  EXPECT_FALSE(s.conn->attested());  // plain image: no conclave

  s.conn->invoke(s.tokens->invocation.bytes(), bu::to_bytes("hello"));
  world.run();
  ASSERT_EQ(s.outputs.size(), 1u);
  EXPECT_EQ(bu::to_string(s.outputs[0]), "echo: hello");

  // Second invocation reuses the same function instance.
  s.conn->invoke(s.tokens->invocation.bytes(), bu::to_bytes("again"));
  world.run();
  ASSERT_EQ(s.outputs.size(), 2u);
  EXPECT_EQ(bu::to_string(s.outputs[1]), "echo: again");
}

TEST(BentoE2E, SgxImageAttestsAndSealsUpload) {
  bc::BentoWorld world;
  world.start();
  auto client = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());

  Deployed s(world, client, boxes[0], test_fn_manifest(bc::kImagePythonOpSgx), kEchoSource);
  ASSERT_TRUE(s.tokens.has_value()) << s.error;
  EXPECT_TRUE(s.conn->attested());

  s.conn->invoke(s.tokens->invocation.bytes(), bu::to_bytes("secret"));
  world.run();
  ASSERT_EQ(s.outputs.size(), 1u);
  EXPECT_EQ(bu::to_string(s.outputs[0]), "echo: secret");
}

TEST(BentoE2E, AttestationFailsWhenTcbOutdated) {
  bc::BentoWorld world;
  world.start();
  world.ias().advance_tcb(99);  // a new vulnerability disclosure
  auto client = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());

  Deployed s(world, client, boxes[0], test_fn_manifest(bc::kImagePythonOpSgx), kEchoSource);
  EXPECT_FALSE(s.tokens.has_value());
  EXPECT_NE(s.error.find("TCB"), std::string::npos) << s.error;
}

TEST(BentoE2E, ManifestExceedingPolicyRejected) {
  bc::BentoWorldOptions options;
  options.server.policy = bc::MiddleboxPolicy::no_storage();
  bc::BentoWorld world(options);
  world.start();
  auto client = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());

  bc::FunctionManifest manifest;
  manifest.name = "writer";
  manifest.required = {bento::sandbox::Syscall::FsWrite};
  manifest.resources.memory_bytes = 1 << 20;
  manifest.resources.cpu_instructions = 1'000'000;
  manifest.resources.disk_bytes = 0;
  manifest.resources.network_bytes = 1 << 20;

  Deployed s(world, client, boxes[0], manifest, kEchoSource);
  EXPECT_FALSE(s.tokens.has_value());
  EXPECT_NE(s.error.find("rejected"), std::string::npos) << s.error;
  EXPECT_EQ(world.server(0).counters().rejected_manifests +
                world.server_for(boxes[0])->counters().rejected_manifests,
            1u);
}

TEST(BentoE2E, FunctionExceedingManifestSyscallsDies) {
  // Manifest does not request FsWrite; the function tries anyway.
  bc::BentoWorld world;
  world.start();
  auto client = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());

  const std::string source = R"(
def on_message(msg):
    fs.write("x", msg)
)";
  Deployed s(world, client, boxes[0], sneaky_manifest(), source);
  ASSERT_TRUE(s.tokens.has_value()) << s.error;

  bc::BentoServer* server = world.server_for(boxes[0]);
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->live_containers(), 1u);

  s.conn->invoke(s.tokens->invocation.bytes(), bu::to_bytes("x"));
  world.run();
  EXPECT_EQ(server->live_containers(), 0u);  // killed + reclaimed
  EXPECT_EQ(server->counters().deaths, 1u);
}

TEST(BentoE2E, RunawayLoopKilledByCpuBudget) {
  bc::BentoWorld world;
  world.start();
  auto client = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());

  const std::string source = R"(
def on_message(msg):
    while True:
        pass
)";
  Deployed s(world, client, boxes[0], test_fn_manifest(bc::kImagePython), source);
  ASSERT_TRUE(s.tokens.has_value()) << s.error;
  s.conn->invoke(s.tokens->invocation.bytes(), bu::to_bytes("go"));
  world.run();
  bc::BentoServer* server = world.server_for(boxes[0]);
  EXPECT_EQ(server->live_containers(), 0u);
  EXPECT_EQ(server->counters().deaths, 1u);
}

TEST(BentoE2E, SyntaxErrorFailsUpload) {
  bc::BentoWorld world;
  world.start();
  auto client = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());
  Deployed s(world, client, boxes[0], test_fn_manifest(bc::kImagePython),
             "def broken(:\n    pass\n");
  EXPECT_FALSE(s.tokens.has_value());
  EXPECT_FALSE(s.error.empty());
}

TEST(BentoE2E, EnforceModeRejectsManifestUnderstatingFunction) {
  // Under VerifyMode::Enforce the static verifier refuses the upload before
  // the container ever runs — with a line-numbered reason naming the
  // capability the manifest failed to request.
  bc::BentoWorldOptions options;
  options.server.verify = bc::VerifyMode::Enforce;
  bc::BentoWorld world(options);
  world.start();
  auto client = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());

  const std::string source = R"(
def on_message(msg):
    fs.write("x", msg)
)";
  Deployed s(world, client, boxes[0], sneaky_manifest(), source);
  EXPECT_FALSE(s.tokens.has_value());
  EXPECT_NE(s.error.find("static verifier"), std::string::npos) << s.error;
  EXPECT_NE(s.error.find("line 3"), std::string::npos) << s.error;
  EXPECT_NE(s.error.find("fs.write"), std::string::npos) << s.error;

  bc::BentoServer* server = world.server_for(boxes[0]);
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->counters().rejected_static, 1u);
  EXPECT_EQ(server->live_containers(), 0u);  // the spawned container is gone
}

TEST(BentoE2E, EnforceModeAdmitsCleanFunctionEndToEnd) {
  bc::BentoWorldOptions options;
  options.server.verify = bc::VerifyMode::Enforce;
  bc::BentoWorld world(options);
  world.start();
  auto client = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());

  Deployed s(world, client, boxes[1], test_fn_manifest(bc::kImagePython), kEchoSource);
  ASSERT_TRUE(s.tokens.has_value()) << s.error;

  s.conn->invoke(s.tokens->invocation.bytes(), bu::to_bytes("verified"));
  world.run();
  ASSERT_EQ(s.outputs.size(), 1u);
  EXPECT_EQ(bu::to_string(s.outputs[0]), "echo: verified");
  EXPECT_EQ(world.server_for(boxes[1])->counters().rejected_static, 0u);
}

TEST(BentoE2E, WarnModeAdmitsUnderstatingFunction) {
  // The default mode only logs what Enforce would reject; the dynamic
  // seccomp-style kill (FunctionExceedingManifestSyscallsDies) still rules.
  bc::BentoWorld world;  // default verify = Warn
  world.start();
  auto client = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());

  Deployed s(world, client, boxes[0], sneaky_manifest(),
             "def on_message(msg):\n    fs.write(\"x\", msg)\n");
  EXPECT_TRUE(s.tokens.has_value()) << s.error;
  EXPECT_EQ(world.server_for(boxes[0])->counters().rejected_static, 0u);
}

TEST(BentoE2E, InvalidTokenRejected) {
  bc::BentoWorld world;
  world.start();
  auto client = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());
  Deployed s(world, client, boxes[0], test_fn_manifest(bc::kImagePython), kEchoSource);
  ASSERT_TRUE(s.tokens.has_value()) << s.error;

  s.conn->invoke(bu::Bytes(bc::kTokenLen, 0x00), bu::to_bytes("hi"));
  world.run();
  EXPECT_TRUE(s.outputs.empty());
}

TEST(BentoE2E, ShutdownTokenSeparatesRights) {
  bc::BentoWorld world;
  world.start();
  auto client = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());
  Deployed s(world, client, boxes[0], test_fn_manifest(bc::kImagePython), kEchoSource);
  ASSERT_TRUE(s.tokens.has_value()) << s.error;
  bc::BentoServer* server = world.server_for(boxes[0]);

  // The invocation token must NOT grant shutdown.
  bool shutdown_ok = true;
  s.conn->shutdown(s.tokens->invocation.bytes(), [&](bool ok) { shutdown_ok = ok; });
  world.run();
  EXPECT_FALSE(shutdown_ok);
  EXPECT_EQ(server->live_containers(), 1u);

  // The shutdown token does.
  s.conn->shutdown(s.tokens->shutdown.bytes(), [&](bool ok) { shutdown_ok = ok; });
  world.run();
  EXPECT_TRUE(shutdown_ok);
  EXPECT_EQ(server->live_containers(), 0u);
}

TEST(BentoE2E, InvocationTokenShareableAcrossClients) {
  bc::BentoWorld world;
  world.start();
  auto alice = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());
  Deployed s(world, alice, boxes[0], test_fn_manifest(bc::kImagePython), kEchoSource);
  ASSERT_TRUE(s.tokens.has_value()) << s.error;

  // Bob, a different client with a different circuit, uses the shared
  // invocation token.
  auto bob = world.make_client("bob");
  std::vector<bu::Bytes> bob_outputs;
  bob.bento->connect(boxes[0], [&](std::shared_ptr<bc::BentoConnection> conn) {
    ASSERT_NE(conn, nullptr);
    conn->set_output_handler([&](bu::Bytes out) { bob_outputs.push_back(std::move(out)); });
    conn->invoke(s.tokens->invocation.bytes(), bu::to_bytes("from bob"));
  });
  world.run();
  ASSERT_EQ(bob_outputs.size(), 1u);
  EXPECT_EQ(bu::to_string(bob_outputs[0]), "echo: from bob");
}

TEST(BentoE2E, StatefulFunctionPersistsAcrossInvocations) {
  bc::BentoWorld world;
  world.start();
  auto client = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());

  const std::string source = R"(
state = {"n": 0}
def on_message(msg):
    state["n"] += 1
    api.send(str(state["n"]))
)";
  Deployed s(world, client, boxes[0], test_fn_manifest(bc::kImagePython), source);
  ASSERT_TRUE(s.tokens.has_value()) << s.error;
  for (int i = 0; i < 3; ++i) {
    s.conn->invoke(s.tokens->invocation.bytes(), {});
    world.run();
  }
  ASSERT_EQ(s.outputs.size(), 3u);
  EXPECT_EQ(bu::to_string(s.outputs[2]), "3");
}

TEST(BentoE2E, FsProtectKeepsOperatorBlind) {
  // Paper §6.2: in the SGX image all function writes are encrypted with an
  // ephemeral key; the operator sees only ciphertext. The python image on
  // the same box stores the same write in the clear, so the check can fail.
  bc::BentoWorld world;
  world.start();
  auto client = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());

  const std::string source = R"(
def on_message(msg):
    fs.write("stash.bin", msg)
    api.send("stored")
)";
  const std::string secret = "abusive-or-sensitive-content";
  Deployed sgx(world, client, boxes[0], test_fn_manifest(bc::kImagePythonOpSgx), source);
  Deployed plain(world, client, boxes[0], test_fn_manifest(bc::kImagePython), source);
  ASSERT_TRUE(sgx.tokens.has_value()) << sgx.error;
  ASSERT_TRUE(plain.tokens.has_value()) << plain.error;
  sgx.conn->invoke(sgx.tokens->invocation.bytes(), bu::to_bytes(secret));
  plain.conn->invoke(plain.tokens->invocation.bytes(), bu::to_bytes(secret));
  world.run();
  ASSERT_EQ(sgx.outputs.size(), 1u);
  ASSERT_EQ(plain.outputs.size(), 1u);
  EXPECT_EQ(bu::to_string(sgx.outputs[0]), "stored");

  // The operator reads each container's stored bytes off its own box.
  bc::BentoServer* server = world.server_for(boxes[0]);
  ASSERT_EQ(server->live_containers(), 2u);
  std::map<std::string, std::string> stored_by_image;
  for (const bc::Container* container : server->containers()) {
    const bu::Bytes* stored = container->stored_bytes("stash.bin");
    ASSERT_NE(stored, nullptr) << container->image();
    stored_by_image[container->image()] = bu::to_string(*stored);
  }
  ASSERT_EQ(stored_by_image.size(), 2u);
  EXPECT_EQ(stored_by_image[bc::kImagePythonOpSgx].find(secret), std::string::npos);
  EXPECT_EQ(stored_by_image[bc::kImagePythonOpSgx].size(), secret.size() + 16);
  EXPECT_EQ(stored_by_image[bc::kImagePython], secret);
}

TEST(BentoE2E, FsListNamesEveryWrittenFile) {
  bc::BentoWorld world;
  world.start();
  auto client = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());
  const std::string source = R"(
def on_message(msg):
    fs.write("a.txt", msg)
    fs.write("b.txt", msg)
    for name in sorted(fs.list()):
        api.send(name)
)";
  Deployed s(world, client, boxes[0], test_fn_manifest(bc::kImagePython), source);
  ASSERT_TRUE(s.tokens.has_value()) << s.error;
  s.conn->invoke(s.tokens->invocation.bytes(), bu::to_bytes("x"));
  world.run();
  ASSERT_EQ(s.outputs.size(), 2u);
  EXPECT_EQ(bu::to_string(s.outputs[0]), "a.txt");
  EXPECT_EQ(bu::to_string(s.outputs[1]), "b.txt");
}

TEST(BentoE2E, SgxUnavailableBoxRefusesConclaveImage) {
  bc::BentoWorldOptions options;
  options.server.sgx_available = false;
  bc::BentoWorld world(options);
  world.start();
  auto client = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());
  Deployed s(world, client, boxes[0], test_fn_manifest(bc::kImagePythonOpSgx), kEchoSource);
  EXPECT_FALSE(s.tokens.has_value());
  EXPECT_NE(s.error.find("SGX"), std::string::npos) << s.error;
}

TEST(BentoE2E, FunctionUsesClockAndRandom) {
  bc::BentoWorld world;
  world.start();
  auto client = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());
  const std::string source = R"(
def on_message(msg):
    t = time.now()
    r = os.urandom(8)
    api.send(str(len(r)) + ":" + str(t >= 0))
)";
  Deployed s(world, client, boxes[0], test_fn_manifest(bc::kImagePython), source);
  ASSERT_TRUE(s.tokens.has_value()) << s.error;
  s.conn->invoke(s.tokens->invocation.bytes(), {});
  world.run();
  ASSERT_EQ(s.outputs.size(), 1u);
  EXPECT_EQ(bu::to_string(s.outputs[0]), "8:True");
}

TEST(BentoE2E, TimerDrivenFunction) {
  bc::BentoWorld world;
  world.start();
  auto client = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());
  const std::string source = R"(
def tick():
    api.send("tick")
def on_message(msg):
    time.after(1.0, tick)
    api.send("armed")
)";
  Deployed s(world, client, boxes[0], test_fn_manifest(bc::kImagePython), source);
  ASSERT_TRUE(s.tokens.has_value()) << s.error;
  s.conn->invoke(s.tokens->invocation.bytes(), {});
  world.run();
  ASSERT_EQ(s.outputs.size(), 2u);
  EXPECT_EQ(bu::to_string(s.outputs[0]), "armed");
  EXPECT_EQ(bu::to_string(s.outputs[1]), "tick");
}

TEST(BentoE2E, FunctionFetchesClearnetViaExitPolicy) {
  bc::BentoWorld world;
  world.start();
  world.bed().add_web_server(bt::parse_addr("93.184.216.34"),
                             [](const std::string& path) {
                               return bu::to_bytes("web:" + path);
                             });
  auto client = world.make_client("alice");
  // An exit relay's box: its netfilter allows clearnet.
  const std::string box = exit_box(world);
  ASSERT_FALSE(box.empty());

  const std::string source = R"(
def got(body):
    api.send(body)
def on_message(msg):
    net.get("http://93.184.216.34/page.html", got)
)";
  Deployed s(world, client, box, fetcher_manifest(), source);
  ASSERT_TRUE(s.tokens.has_value()) << s.error;
  s.conn->invoke(s.tokens->invocation.bytes(), {});
  world.run();
  ASSERT_EQ(s.outputs.size(), 1u);
  EXPECT_EQ(bu::to_string(s.outputs[0]), "web:/page.html");
}

TEST(BentoE2E, ClearnetFetchArrivesWholeInABufferOfItsExactSize) {
  // A native function fetches the URL its payload names through
  // HostApi::http_get. Bodies straddle the box's 64 KiB collection blocks:
  // each must arrive byte for byte, in one buffer of exactly its size.
  struct Fetcher final : bc::Function {
    std::vector<bu::Bytes>* bodies;
    explicit Fetcher(std::vector<bu::Bytes>* out) : bodies(out) {}
    void on_install(bc::HostApi&, bu::ByteView) override {}
    void on_message(bc::HostApi& api, bu::Bytes payload) override {
      api.http_get(bu::to_string(payload), [this](bool ok, bu::Bytes body) {
        if (ok) bodies->push_back(std::move(body));
      });
    }
  };
  auto body_of = [](std::size_t n) { return bu::Rng(n + 1).bytes(n); };

  bc::BentoWorld world;
  std::vector<bu::Bytes> bodies;
  world.natives().add("fetcher", [&bodies] { return std::make_unique<Fetcher>(&bodies); });
  world.start();
  world.bed().add_web_server(bt::parse_addr("93.184.216.34"),
                             [&body_of](const std::string& path) {
                               return body_of(std::stoul(path.substr(1)));
                             });
  auto client = world.make_client("alice");
  Deployed s(world, client, exit_box(world), fetcher_manifest(), "", "fetcher");
  ASSERT_TRUE(s.tokens.has_value()) << s.error;

  const std::size_t sizes[] = {0, 1, 65'535, 65'536, 65'537, 1'000'000};
  for (const std::size_t n : sizes) {
    s.conn->invoke(s.tokens->invocation.bytes(),
                   bu::to_bytes("http://93.184.216.34/" + std::to_string(n)));
    world.run();
    ASSERT_FALSE(bodies.empty()) << n << " B body never arrived";
    const bu::Bytes& body = bodies.back();
    EXPECT_EQ(body, body_of(n)) << n << " B body";
    EXPECT_EQ(body.capacity(), body.size()) << n << " B body";
  }
  EXPECT_EQ(bodies.size(), std::size(sizes));
}

TEST(BentoE2E, NonExitBoxFunctionsHaveNoDirectNetwork) {
  // Paper §5.3: a non-exit relay's functions are limited to Tor circuits.
  bc::BentoWorld world;
  world.start();
  world.bed().add_web_server(bt::parse_addr("93.184.216.34"),
                             [](const std::string&) { return bu::to_bytes("x"); });
  auto client = world.make_client("alice");
  std::string guard_box;
  for (const auto& relay : world.bed().consensus().relays) {
    if (relay.flags.guard) guard_box = relay.fingerprint();
  }
  const std::string source = R"(
def got(body):
    api.send("got")
def on_message(msg):
    net.get("http://93.184.216.34/", got)
)";
  Deployed s(world, client, guard_box, fetcher_manifest(), source);
  ASSERT_TRUE(s.tokens.has_value()) << s.error;
  bc::BentoServer* server = world.server_for(guard_box);

  s.conn->invoke(s.tokens->invocation.bytes(), {});
  world.run();
  EXPECT_TRUE(s.outputs.empty());
  EXPECT_EQ(server->counters().deaths, 1u);  // netfilter denial kills it
}

TEST(BentoE2E, ComposedFunctionDeploysDropboxElsewhere) {
  // Figure 2: a function on box A deploys a second function on box B and
  // pushes data to it.
  bc::BentoWorld world;
  world.start();
  auto client = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());

  const std::string composer = R"(
state = {"target": ""}
store_src = "def on_message(msg):\n    api.send('stored ' + str(len(msg)))\n"

def relay_output(out):
    api.send(out)

def deployed(token):
    if token == None:
        api.send("deploy failed")
    else:
        bento.invoke(state["target"], token, "payload-from-composer", relay_output)

def on_message(msg):
    state["target"] = str(msg)
    bento.deploy(state["target"], "store", store_src, [], "", deployed)
)";

  Deployed s(world, client, boxes[0], composer_manifest(), composer);
  ASSERT_TRUE(s.tokens.has_value()) << s.error;

  s.conn->invoke(s.tokens->invocation.bytes(), bu::to_bytes(boxes[2]));
  world.run();
  ASSERT_EQ(s.outputs.size(), 1u);
  EXPECT_EQ(bu::to_string(s.outputs[0]), "stored 21");
  // The second box really runs a container now.
  EXPECT_EQ(world.server_for(boxes[2])->live_containers(), 1u);
}

// Composition dials the port the boxes listen on, not the default one: on a
// port-6000 world a function's deploy answers a token, and another
// function's invoke (over a connection of its own) answers the output.
TEST(BentoE2E, ComposedDeployAndInvokeReachABoxOnItsConfiguredPort) {
  bc::BentoWorldOptions options;
  options.server.port = 6000;
  bc::BentoWorld world(options);
  world.start();
  auto client = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());

  const std::string deployer = R"(
store_src = "def on_message(msg):\n    api.send('stored ' + str(len(msg)))\n"

def deployed(token):
    if token == None:
        api.send("deploy failed")
    else:
        api.send(token)

def on_message(msg):
    bento.deploy(str(msg), "store", store_src, [], "", deployed)
)";
  const std::string invoker = R"(
state = {"box": ""}

def relay_output(out):
    api.send(out)

def on_install(args):
    state["box"] = str(args)

def on_message(msg):
    bento.invoke(state["box"], msg, "payload-from-invoker", relay_output)
)";

  Deployed d(world, client, boxes[0], composer_manifest(), deployer);
  ASSERT_TRUE(d.tokens.has_value()) << d.error;
  d.conn->invoke(d.tokens->invocation.bytes(), bu::to_bytes(boxes[2]));
  world.run();
  ASSERT_EQ(d.outputs.size(), 1u);
  ASSERT_NE(bu::to_string(d.outputs[0]), "deploy failed");

  Deployed i(world, client, boxes[1], composer_manifest(), invoker, "",
             bu::to_bytes(boxes[2]));
  ASSERT_TRUE(i.tokens.has_value()) << i.error;
  i.conn->invoke(i.tokens->invocation.bytes(), d.outputs[0]);
  world.run();
  ASSERT_EQ(i.outputs.size(), 1u);
  EXPECT_EQ(bu::to_string(i.outputs[0]), "stored 20");
}

TEST(BentoE2E, RefusedDeployAnswersNoneAndTheComposerKeepsServing) {
  // A composed deploy that the remote box refuses (the uploaded source does
  // not parse) reaches the script once, as None; the deploying function
  // keeps serving.
  bc::BentoWorld world;
  world.start();
  auto client = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());

  const std::string composer = R"(
def deployed(token):
    if token == None:
        api.send("deploy refused")
    else:
        api.send("deployed")

def on_message(msg):
    target = str(msg)
    if target == "ping":
        api.send("pong")
    else:
        bento.deploy(target, "broken", "def broken(:\n    pass\n", [], "", deployed)
)";
  Deployed s(world, client, boxes[0], composer_manifest(), composer);
  ASSERT_TRUE(s.tokens.has_value()) << s.error;

  s.conn->invoke(s.tokens->invocation.bytes(), bu::to_bytes(boxes[2]));
  world.run();
  ASSERT_EQ(s.outputs.size(), 1u);
  EXPECT_EQ(bu::to_string(s.outputs[0]), "deploy refused");
  EXPECT_EQ(world.server_for(boxes[2])->live_containers(), 0u);

  s.conn->invoke(s.tokens->invocation.bytes(), bu::to_bytes("ping"));
  world.run();
  ASSERT_EQ(s.outputs.size(), 2u);
  EXPECT_EQ(bu::to_string(s.outputs[1]), "pong");
  EXPECT_EQ(world.server_for(boxes[0])->live_containers(), 1u);
}

// install() reports a refused step exactly once, with that step's error,
// and never uploads after a spawn that failed.
TEST(Install, UnofferedImageFailsAtTheSpawnWithoutAnUpload) {
  bc::BentoWorld world;
  world.start();
  auto client = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());

  const InstallOutcome out =
      install_traced(world, *client.bento, boxes[0], echo_manifest("windows-me"));
  EXPECT_EQ(out.callbacks, 1);
  EXPECT_FALSE(out.tokens.has_value());
  EXPECT_EQ(out.error.rfind("image not offered", 0), 0u) << out.error;
  EXPECT_EQ(out.uploads_sent, 0u);
  EXPECT_EQ(out.box_messages, 1u);  // the spawn alone
  EXPECT_EQ(world.server_for(boxes[0])->live_containers(), 0u);
}

TEST(Install, RejectedManifestFailsAtTheUpload) {
  bc::BentoWorldOptions options;
  options.server.policy = bc::MiddleboxPolicy::no_storage();
  bc::BentoWorld world(options);
  world.start();
  auto client = world.make_client("alice");
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());

  bc::FunctionManifest manifest = echo_manifest(bc::kImagePython);
  manifest.required = {bento::sandbox::Syscall::FsWrite};
  const InstallOutcome out = install_traced(world, *client.bento, boxes[0], manifest);
  EXPECT_EQ(out.callbacks, 1);
  EXPECT_FALSE(out.tokens.has_value());
  EXPECT_EQ(out.error.rfind("manifest rejected", 0), 0u) << out.error;
  EXPECT_EQ(out.uploads_sent, 1u);
  EXPECT_EQ(out.box_messages, 2u);  // the spawn, then the refused upload
}

TEST(Install, FailedAttestationFailsAtTheSpawnWithoutAnUpload) {
  bc::BentoWorld world;
  world.start();
  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());
  // A client expecting another runtime than the one the box attests.
  auto proxy = world.bed().make_client("alice");
  bc::BentoClientConfig config = world.client_config();
  config.expected_runtime = {};
  bc::BentoClient client(*proxy, config);

  const InstallOutcome out =
      install_traced(world, client, boxes[0], echo_manifest(bc::kImagePythonOpSgx));
  EXPECT_EQ(out.callbacks, 1);
  EXPECT_FALSE(out.tokens.has_value());
  EXPECT_EQ(out.error.rfind("attestation: ", 0), 0u) << out.error;
  EXPECT_EQ(out.uploads_sent, 0u);
  EXPECT_EQ(out.box_messages, 1u);  // the box spawned; the client walked away
}
