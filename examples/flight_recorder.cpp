// Flight recorder walkthrough: run a Bento scenario with the trace ring and
// metrics registry on, then write the three observability artifacts:
//
//   trace.json  — Chrome trace_event JSON; open in chrome://tracing or
//                 https://ui.perfetto.dev to see the sim/tor/bento lanes,
//   trace.jsonl — one event per line, byte-stable across identical seeds
//                 (diff two runs to prove determinism),
//   stats.txt   — World::snapshot_stats() text dump: registry counters,
//                 gauges, latency histograms, per-server/per-function and
//                 per-node sections,
//   stats.json  — same snapshot as byte-stable JSON (Snapshot::to_json),
//                 for machine diffing and the CI artifact.
//
// The scenario is quickstart's workflow (spawn, sealed upload, invoke,
// shutdown) plus a clearnet fetch, so the trace shows both the function
// lifecycle events and a full circuit build with TTFB/TTLB marks.
//
// Build: cmake --build build --target flight_recorder
// Run:   ./build/examples/flight_recorder [output-dir]
#include <fstream>
#include <iostream>
#include <string>

#include "core/world.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bc = bento::core;
namespace bo = bento::obs;
namespace bt = bento::tor;
namespace bu = bento::util;

namespace {
constexpr char kEchoSource[] = R"(
state = {"count": 0}

def on_message(msg):
    state["count"] += 1
    api.send("echo #" + str(state["count"]) + ": " + str(msg))
)";
}

int main(int argc, char** argv) {
  const std::string out_dir = argc > 1 ? argv[1] : ".";

  // Recorder on before the world exists so circuit builds are captured too.
  // The SimDispatch firehose stays enabled here on purpose — the Chrome
  // view puts it on its own lane; silence it with set_mask if unwanted.
  bo::recorder().enable(std::size_t{1} << 16);

  bc::BentoWorldOptions options;
  options.testbed.guards = 2;
  options.testbed.middles = 2;
  options.testbed.exits = 2;
  bc::BentoWorld world(options);
  bt::Addr web = bt::parse_addr("93.184.216.34");
  world.bed().add_web_server(web, [](const std::string&) -> std::optional<bu::Bytes> {
    return bu::Bytes(100'000, 'x');
  });
  world.start();

  auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());
  auto client = world.make_client("alice");
  std::shared_ptr<bc::BentoConnection> conn;
  client.bento->connect(boxes[0], [&](std::shared_ptr<bc::BentoConnection> c) {
    conn = std::move(c);
  });
  world.run();
  if (conn == nullptr) {
    std::cerr << "connect failed\n";
    return 1;
  }
  conn->set_output_handler([](bu::Bytes out) {
    std::cout << "  function says: " << bu::to_string(out) << "\n";
  });

  bool ready = false;
  conn->spawn(bc::kImagePythonOpSgx, [&](bool ok, std::string err) {
    if (!ok) std::cerr << "spawn failed: " << err << "\n";
    ready = ok;
  });
  world.run();
  if (!ready) return 1;

  bc::FunctionManifest manifest;
  manifest.name = "echo";
  manifest.image = bc::kImagePythonOpSgx;
  manifest.resources.memory_bytes = 8 << 20;
  manifest.resources.cpu_instructions = 1'000'000;
  manifest.resources.disk_bytes = 1 << 20;
  manifest.resources.network_bytes = 1 << 20;

  std::optional<bc::TokenPair> tokens;
  conn->upload(manifest, kEchoSource, "", {},
               [&](std::optional<bc::TokenPair> t, std::string err) {
                 if (!t.has_value()) std::cerr << "upload failed: " << err << "\n";
                 tokens = std::move(t);
               });
  world.run();
  if (!tokens.has_value()) return 1;

  for (const char* message : {"first call", "second call", "third call"}) {
    conn->invoke(tokens->invocation.bytes(), bu::to_bytes(message));
    world.run();
  }

  // A plain Tor fetch on the side so the trace holds stream TTFB/TTLB.
  bt::Endpoint site{web, 80};
  bt::PathConstraints constraints;
  constraints.exit_to = site;
  bool fetched = false;
  client.proxy->build_circuit(constraints, [&](bt::CircuitOrigin* circ) {
    if (circ == nullptr) return;
    bt::Stream::Callbacks cbs;
    cbs.on_end = [&fetched] { fetched = true; };
    bt::Stream* stream = circ->open_stream(site, std::move(cbs));
    stream->set_on_connected([stream] { stream->send(bu::to_bytes("GET /\n")); });
  });
  world.run();

  bool closed = false;
  conn->shutdown(tokens->shutdown.bytes(), [&](bool ok) { closed = ok; });
  world.run();

  const bo::Recorder& rec = bo::recorder();
  std::cout << "scenario done at t=" << world.sim().now().seconds()
            << "s; fetch " << (fetched ? "ok" : "FAILED") << ", shutdown "
            << (closed ? "ok" : "FAILED") << "\n"
            << "recorded " << rec.recorded() << " trace events ("
            << rec.overwritten() << " overwritten, ring holds " << rec.size()
            << ")\n";

  {
    std::ofstream f(out_dir + "/trace.json");
    bo::recorder().export_chrome_trace(f);
  }
  {
    std::ofstream f(out_dir + "/trace.jsonl");
    bo::recorder().export_jsonl(f);
  }
  const bo::Snapshot snap = world.snapshot_stats();
  {
    std::ofstream f(out_dir + "/stats.txt");
    f << snap.to_string();
  }
  {
    std::ofstream f(out_dir + "/stats.json");
    snap.to_json(f);
  }
  std::cout << "wrote " << out_dir << "/trace.json (chrome://tracing), "
            << out_dir << "/trace.jsonl, " << out_dir << "/stats.txt, "
            << out_dir << "/stats.json\n\n"
            << snap.to_string();
  return fetched && closed ? 0 : 1;
}
