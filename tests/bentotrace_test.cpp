// bentotrace tests: the JSONL reader, forest reconstruction (orphans,
// wraparound stubs), table columns that stay apart at full width,
// byte-identical span trees for fixed-seed runs, per-stage coverage of a
// full conclave deployment (client, relay hops, conclave dispatch,
// attestation) and its critical-path attribution, Stem-firewall mediation
// spans via the LoadBalancer native, and orphan reporting when a circuit
// dies mid-request.
#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bentotrace/report.hpp"
#include "core/world.hpp"
#include "functions/loadbalancer.hpp"
#include "obs/critpath.hpp"
#include "obs/forest.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "world_fixture.hpp"

namespace bc = bento::core;
namespace bf = bento::functions;
namespace bo = bento::obs;
namespace bt = bento::tools;
namespace bu = bento::util;

TEST(BentotraceReader, ParsesExporterLines) {
  auto ev = bo::parse_jsonl_line(
      R"({"ts":1234,"ev":"span.begin","a":7,"b":12884901890,"ok":1})");
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->ts_us, 1234);
  EXPECT_EQ(ev->kind, bo::Ev::SpanBegin);
  EXPECT_EQ(ev->a, 7u);
  EXPECT_EQ(ev->b, 12884901890ull);
  EXPECT_EQ(ev->flags, 1);

  auto failed = bo::parse_jsonl_line(
      R"({"ts":-1,"ev":"span.end","a":1,"b":4,"ok":0})");
  ASSERT_TRUE(failed.has_value());
  EXPECT_EQ(failed->ts_us, -1);
  EXPECT_EQ(failed->flags, 0);

  EXPECT_FALSE(bo::parse_jsonl_line("").has_value());
  EXPECT_FALSE(bo::parse_jsonl_line("not json").has_value());
  EXPECT_FALSE(bo::parse_jsonl_line(R"({"ts":1,"ev":"x","a":2})").has_value());
  EXPECT_FALSE(
      bo::parse_jsonl_line(R"({"ts":1,"ev":"x","a":2,"b":3,"ok":1} trailing)")
          .has_value());
}

TEST(BentotraceReader, UnknownKindCountsAsUnparsed) {
  // A well-formed line naming no Ev kind is as foreign as a broken one.
  std::istringstream in(
      "{\"ts\":5,\"ev\":\"cell.send\",\"a\":1,\"b\":2,\"ok\":1}\n"
      "{\"ts\":6,\"ev\":\"cell.teleport\",\"a\":1,\"b\":2,\"ok\":1}\n"
      "\n"
      "{\"ts\":7,\"ev\":\"cell.recv\",\"a\":1\n");
  const bo::JsonlTrace trace = bo::read_jsonl(in);
  ASSERT_EQ(trace.events.size(), 1u);
  EXPECT_EQ(trace.events[0].kind, bo::Ev::CellSend);
  EXPECT_EQ(trace.unparsed, 2u);  // the unknown kind and the cut line
}

TEST(BentotraceReader, SummaryCountsParsedEventsOnly) {
  // A cut line shows in the integrity line, not in the event count.
  std::istringstream in(
      "{\"ts\":5,\"ev\":\"cell.send\",\"a\":1,\"b\":2,\"ok\":1}\n"
      "{\"ts\":6,\"ev\":\"cell.recv\",\"a\":1,\"b\":2,\"ok\":1}\n"
      "{\"ts\":7,\"ev\":\"cell.recv\",\"a\":1\n");
  const bo::JsonlTrace trace = bo::read_jsonl(in);
  std::ostringstream os;
  bt::format_summary(trace, bo::build_forest(trace.events, trace.unparsed), os);
  const std::string out = os.str();
  EXPECT_EQ(out.substr(0, out.find('\n')), "bentotrace summary: 2 events, 0 spans, 0 traces");
  EXPECT_NE(out.find("\nintegrity: 0 orphan ends, 0 unfinished spans, 1 unparsed lines\n"),
            std::string::npos);
}

namespace {

bo::TraceEvent raw(std::int64_t ts, bo::Ev kind, std::uint32_t a, std::uint64_t b) {
  return bo::TraceEvent{.ts_us = ts, .b = b, .a = a, .kind = kind, .flags = 1};
}

std::uint64_t begin_b(std::uint32_t parent, bo::Stage stage) {
  return (static_cast<std::uint64_t>(parent) << 32) |
         static_cast<std::uint64_t>(stage);
}

}  // namespace

TEST(BentotraceReader, BuildsForestWithParentLinks) {
  std::vector<bo::TraceEvent> events = {
      raw(0, bo::Ev::SpanBegin, 1, begin_b(0, bo::Stage::ClientInvoke)),
      raw(5, bo::Ev::SpanBegin, 2, begin_b(1, bo::Stage::NetLink)),
      raw(5, bo::Ev::SpanNote, 2,
          (static_cast<std::uint64_t>(bo::kNoteWireBytes) << 32) | 581),
      raw(45, bo::Ev::SpanEnd, 2, static_cast<std::uint64_t>(bo::Stage::NetLink)),
      raw(90, bo::Ev::SpanEnd, 1,
          static_cast<std::uint64_t>(bo::Stage::ClientInvoke)),
  };
  const bo::SpanForest forest = bo::build_forest(events);
  ASSERT_EQ(forest.spans.size(), 2u);
  ASSERT_EQ(forest.roots.size(), 1u);
  EXPECT_TRUE(forest.orphan_ends.empty());
  EXPECT_TRUE(forest.unfinished.empty());
  const bo::SpanNode& root = forest.spans.at(1);
  EXPECT_EQ(root.stage, bo::Stage::ClientInvoke);
  EXPECT_EQ(root.duration_us(), 90);
  ASSERT_EQ(root.children.size(), 1u);
  const bo::SpanNode& link = forest.spans.at(2);
  EXPECT_EQ(link.parent, 1u);
  EXPECT_EQ(link.wire_bytes, 581u);
  EXPECT_EQ(link.duration_us(), 40);
}

TEST(BentotraceReader, OrphanEndAndUnfinishedSpanAreReported) {
  std::vector<bo::TraceEvent> events = {
      // End whose begin was overwritten by ring wraparound: stage comes
      // from the end event itself.
      raw(100, bo::Ev::SpanEnd, 9, static_cast<std::uint64_t>(bo::Stage::NetLink)),
      // Begin that never ends (request still in flight at export).
      raw(200, bo::Ev::SpanBegin, 10, begin_b(0, bo::Stage::ClientInvoke)),
      // Child whose parent is entirely lost: promoted to a root.
      raw(300, bo::Ev::SpanBegin, 11, begin_b(4, bo::Stage::RelayForward)),
      raw(310, bo::Ev::SpanEnd, 11,
          static_cast<std::uint64_t>(bo::Stage::RelayForward)),
  };
  const bo::SpanForest forest = bo::build_forest(events);
  ASSERT_EQ(forest.orphan_ends.size(), 1u);
  EXPECT_EQ(forest.spans.at(9).stage, bo::Stage::NetLink);
  EXPECT_FALSE(forest.spans.at(9).complete());
  ASSERT_EQ(forest.unfinished.size(), 1u);
  EXPECT_EQ(forest.unfinished[0], 10u);
  // Lost-parent child is a root, and nothing crashes formatting any of it.
  EXPECT_EQ(forest.roots.size(), 3u);
  std::ostringstream os;
  bt::format_tree(forest, os);
  EXPECT_NE(os.str().find("orphan ends"), std::string::npos);
  EXPECT_NE(os.str().find("unfinished spans"), std::string::npos);
  std::ostringstream summary;
  bt::format_stage_summary(forest, summary);
  EXPECT_NE(summary.str().find("relay.forward"), std::string::npos);
}

TEST(BentotraceReader, FullWidthValuesKeepTheirColumnsApart) {
  // The flight recorder's TTFB shape: one 6-digit first byte and one
  // 8-digit one (a stream that idles until a spawn), exactly as wide as the
  // 8-character percentile columns.
  const std::vector<bo::TraceEvent> events = {
      raw(10, bo::Ev::StreamTtfb, 7, 623650),
      raw(20, bo::Ev::StreamTtfb, 7, 29776402),
  };
  std::ostringstream os;
  bt::format_ttfb_table(bo::build_forest(events), os);
  std::istringstream lines(os.str());
  std::vector<std::string> all_row;
  for (std::string line; std::getline(lines, line);) {
    std::istringstream in(line);
    std::vector<std::string> fields{std::istream_iterator<std::string>(in),
                                    std::istream_iterator<std::string>()};
    if (!fields.empty() && fields[0] == "all") all_row = fields;
  }
  const std::vector<std::string> want = {"all",      "2",        "623650",
                                         "29776402", "29776402", "29776402",
                                         "29776402"};
  EXPECT_EQ(all_row, want) << os.str();
}

namespace {

constexpr char kCountingEchoSource[] = R"(
state = {"n": 0}

def on_message(msg):
    state["n"] += 1
    api.send("echo " + str(state["n"]))
)";

struct ScenarioResult {
  std::string jsonl;
  std::string tree;
  bo::SpanForest forest;
};

// Fixed-seed conclave deployment: connect, SGX spawn, upload, two invokes,
// shutdown. Returns the JSONL export plus the reconstructed forest.
ScenarioResult run_conclave_scenario() {
  ScenarioResult result;
  bo::recorder().enable(std::size_t{1} << 16);
  {
    bc::BentoWorldOptions options;
    options.testbed.guards = 2;
    options.testbed.middles = 2;
    options.testbed.exits = 2;
    bc::BentoWorld world(options);
    world.start();

    auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());
    auto client = world.make_client("alice");
    Deployed d(world, client, boxes[0], echo_manifest(bc::kImagePythonOpSgx),
               kCountingEchoSource);
    EXPECT_NE(d.conn, nullptr);
    EXPECT_TRUE(d.tokens.has_value()) << d.error;
    if (d.tokens.has_value()) {
      for (int i = 0; i < 2; ++i) {
        d.conn->invoke(d.tokens->invocation.bytes(), bu::to_bytes("ping"));
        world.run();
      }
      bool closed = false;
      d.conn->shutdown(d.tokens->shutdown.bytes(), [&](bool ok) { closed = ok; });
      world.run();
      EXPECT_TRUE(closed);
    }
    std::ostringstream os;
    bo::recorder().export_jsonl(os);
    result.jsonl = os.str();
  }
  bo::recorder().disable();

  std::istringstream in(result.jsonl);
  result.forest = bo::build_forest(bo::read_jsonl(in).events);
  std::ostringstream tree;
  bt::format_tree(result.forest, tree);
  result.tree = tree.str();
  return result;
}

std::set<std::string> stages_seen(const bo::SpanForest& forest) {
  std::set<std::string> seen;
  for (const auto& [id, node] : forest.spans) {
    seen.insert(bo::stage_name(node.stage));
  }
  return seen;
}

}  // namespace

TEST(BentotraceE2E, SpanTreesByteIdenticalAcrossFixedSeedRuns) {
  const ScenarioResult first = run_conclave_scenario();
  const ScenarioResult second = run_conclave_scenario();
  ASSERT_FALSE(first.tree.empty());
  EXPECT_EQ(first.jsonl, second.jsonl);
  EXPECT_EQ(first.tree, second.tree);
}

TEST(BentotraceE2E, BreakdownCoversEveryPipelineStage) {
  const ScenarioResult result = run_conclave_scenario();
  const std::set<std::string> seen = stages_seen(result.forest);
  // Client-side request origins.
  EXPECT_TRUE(seen.count("client.connect"));
  EXPECT_TRUE(seen.count("client.spawn"));
  EXPECT_TRUE(seen.count("client.upload"));
  EXPECT_TRUE(seen.count("client.invoke"));
  EXPECT_TRUE(seen.count("client.shutdown"));
  // Transit: every hop shows up as link + relay spans.
  EXPECT_TRUE(seen.count("net.link"));
  EXPECT_TRUE(seen.count("relay.forward"));
  // Box side: message handling, conclave dispatch, sandboxed execution,
  // spawn-time attestation.
  EXPECT_TRUE(seen.count("server.handle"));
  EXPECT_TRUE(seen.count("fn.dispatch"));
  EXPECT_TRUE(seen.count("fn.execute"));
  EXPECT_TRUE(seen.count("attest"));

  // The conclave ecall transition has its modeled cost attributed: every
  // complete fn.dispatch span lasts exactly the ecall overhead (60 us).
  std::size_t dispatches = 0;
  for (const auto& [id, node] : result.forest.spans) {
    if (node.stage != bo::Stage::FnDispatch || !node.complete()) continue;
    ++dispatches;
    EXPECT_EQ(node.duration_us(), 60);
  }
  EXPECT_GT(dispatches, 0u);

  // Stage summary renders every seen stage.
  std::ostringstream os;
  bt::format_stage_summary(result.forest, os);
  for (const std::string& name : seen) {
    EXPECT_NE(os.str().find(name), std::string::npos) << name;
  }
}

TEST(BentotraceE2E, CritpathAttributesEveryConclaveRequest) {
  const ScenarioResult result = run_conclave_scenario();
  const bo::CritReport report = bo::compute_critical_paths(result.forest);
  // Connect, spawn, upload, two invokes and shutdown, all complete.
  EXPECT_EQ(report.requests.size(), 6u);
  EXPECT_EQ(report.incomplete, 0u);

  std::size_t invokes = 0;
  for (const bo::RequestBlame& req : report.requests) {
    const bo::SpanNode& root = result.forest.spans.at(req.root_id);
    std::int64_t sum = 0;
    std::int64_t dispatch = 0;
    for (const bo::BlameSeg& seg : req.segs) {
      sum += seg.us;
      if (bo::segment_name(seg.stage, seg.kind) == "fn_dispatch") dispatch += seg.us;
    }
    // Every microsecond of the root span lands in exactly one segment.
    EXPECT_EQ(req.total_us, root.duration_us());
    EXPECT_EQ(sum, req.total_us);
    // The conclave ecall (60 us) is on every invoke's critical path, and on
    // no other request's.
    if (root.stage == bo::Stage::ClientInvoke) {
      ++invokes;
      EXPECT_EQ(dispatch, 60);
    } else {
      EXPECT_EQ(dispatch, 0) << bo::stage_name(root.stage);
    }
  }
  EXPECT_EQ(invokes, 2u);
}

TEST(BentotraceE2E, StemMediationSpansAppearForHiddenServiceFunctions) {
  // The hidden-service machinery emits far more cell/sim events than the
  // ring holds; keep only span kinds so the request tree survives the flood
  // (the production pattern for tracing on a busy relay).
  bo::recorder().enable(std::size_t{1} << 16);
  bo::recorder().set_mask(bo::Recorder::mask_of(bo::Ev::SpanBegin) |
                          bo::Recorder::mask_of(bo::Ev::SpanEnd) |
                          bo::Recorder::mask_of(bo::Ev::SpanNote));
  std::string jsonl;
  {
    bc::BentoWorldOptions options;
    options.testbed.guards = 3;
    options.testbed.middles = 6;
    options.testbed.exits = 2;
    options.testbed.relay_bandwidth = 4e6;
    bc::BentoWorld world(options);
    bf::register_loadbalancer(world.natives());
    world.start();

    auto client = world.make_client("operator");
    auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());
    ASSERT_GE(boxes.size(), 4u);

    bf::LoadBalancerConfig config;
    config.intro_points = 2;
    config.content_bytes = 10'000;
    config.replica_boxes = {boxes[2], boxes[3]};
    Deployed d(world, client, boxes[1], bf::loadbalancer_manifest(), "", "loadbalancer",
               config.serialize());
    ASSERT_NE(d.conn, nullptr);
    ASSERT_TRUE(d.tokens.has_value()) << d.error;

    std::ostringstream os;
    bo::recorder().export_jsonl(os);
    jsonl = os.str();
  }
  bo::recorder().disable();
  bo::recorder().set_mask(bo::Recorder::mask_all());

  std::istringstream in(jsonl);
  const bo::SpanForest forest = bo::build_forest(bo::read_jsonl(in).events);
  std::size_t mediations = 0;
  for (const auto& [id, node] : forest.spans) {
    if (node.stage != bo::Stage::StemMediate) continue;
    ++mediations;
    // Mediation always happens on behalf of a traced request, never as a
    // root of its own.
    EXPECT_NE(node.parent, 0u);
  }
  EXPECT_GT(mediations, 0u);
}

TEST(BentotraceE2E, MidRequestTeardownLeavesReportedOrphanSpan) {
  bo::recorder().enable(std::size_t{1} << 16);
  std::string jsonl;
  {
    bc::BentoWorldOptions options;
    options.testbed.guards = 2;
    options.testbed.middles = 2;
    options.testbed.exits = 2;
    bc::BentoWorld world(options);
    world.start();

    auto boxes = bc::BentoClient::find_boxes(world.bed().consensus());
    auto client = world.make_client("alice");
    Deployed d(world, client, boxes[0], echo_manifest(bc::kImagePythonOpSgx),
               kCountingEchoSource);
    ASSERT_NE(d.conn, nullptr);
    ASSERT_TRUE(d.tokens.has_value()) << d.error;

    // Fire an invoke but kill the connection before the response can make
    // it back: the request's span must surface as an orphan, not vanish.
    d.conn->invoke(d.tokens->invocation.bytes(), bu::to_bytes("doomed"));
    world.run_for(bu::Duration::millis(10));
    d.conn->close();
    world.run();

    std::ostringstream os;
    bo::recorder().export_jsonl(os);
    jsonl = os.str();
  }
  bo::recorder().disable();

  std::istringstream in(jsonl);
  const bo::SpanForest forest = bo::build_forest(bo::read_jsonl(in).events);
  bool orphaned_invoke = false;
  for (const auto& [id, node] : forest.spans) {
    if (node.stage != bo::Stage::ClientInvoke) continue;
    // Either the teardown path closed it as a failure, or it never got an
    // end and is reported unfinished; both are visible orphans.
    if (!node.complete() || !node.ok) orphaned_invoke = true;
  }
  EXPECT_TRUE(orphaned_invoke);
  std::ostringstream tree;
  bt::format_tree(forest, tree);  // must not crash on the orphan
  EXPECT_FALSE(tree.str().empty());
}
