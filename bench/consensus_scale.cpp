// Consensus-scale standing scenario (DESIGN.md §13): 1,024 relays in 8
// latency groups serving >= 100k simulated client sessions on the one event
// loop, with a declarative SLO verdict at the end. The one synthetic
// simulator harness: it exercises only sim::Network and the obs stack.
//
// Topology: 8 groups x 128 relays plus 32 client-edge nodes per group; each
// edge node fronts ~50 client sessions (distinct stream ids, staggered start
// times), so the 100k-client population rides 1,280 network nodes while
// every session still runs its own cell chain with its own timing.
// Intra-group links are explicit (relay mesh 2 ms, edge->relay 10 ms);
// cross-group links take the 40 ms default.
//
// Each session walks a Tor-shaped path: edge ->guard ->middle ->exit, then
// two reply cells back down (exit ->middle ->guard ->edge). Guard/middle/
// exit always sit in pairwise different groups, so every chain takes the
// slow cross-group links. Every relay delivery runs a ChaCha-style mixing
// loop standing in for relay crypto.
// The client edge stamps stream.ttfb on the first reply cell and
// stream.ttlb on the second — those series feed the SLO engine.
//
// Outputs: a one-object summary JSON on stdout (run_benchmarks.sh appends
// it to BENCH_trajectory.jsonl), plus opt-in artifacts:
//   --out FILE               BENCH_scenarios.json SLO verdict (byte-stable)
//   --trace-out FILE         trace.jsonl (stream.ttfb/ttlb events)
//   --trace-spans            add causal spans to the trace: one client.invoke
//                            root per session (its duration == the session
//                            TTLB), relay.forward + net.link spans along the
//                            whole chain, and chaos events — the input
//                            `bentotrace critpath` attributes. ~10x more ring
//                            events per session; meant for the smaller
//                            explainer run, not the 100k standing scenario
//   --slo SPEC               replace the default objectives (repeatable)
// Exit code is the SLO verdict: 0 pass, 1 fail.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "obs/slo.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/simclock.hpp"

namespace bo = bento::obs;
namespace bs = bento::sim;
namespace bu = bento::util;

using bu::Duration;
using bu::Time;

namespace {

constexpr int kGroups = 8;
constexpr int kRelaysPerGroup = 128;  // 1,024 relays total
constexpr int kEdgesPerGroup = 32;    // client-edge (NIC aggregation) nodes

// Cell layout (64 bytes). Relays are stateless: the full path rides in the
// cell, so a relay only reads its stage and forwards.
//   [0]      stage: 0 edge->guard, 1 guard->middle, 2 middle->exit,
//            3 exit->middle, 4 middle->guard, 5 guard->edge
//   [1]      reply cell index (0 = first byte, 1 = last byte)
//   [2..5]   client session index, u32 LE
//   [6..9]   guard node id     [10..13] middle node id
//   [14..17] exit node id      [18..21] edge node id
//   [22]     mix byte (carries the crypto stand-in result hop to hop)
//   [23..26] root span id (u32 LE; 0 unless --trace-spans): the edge ends
//            the session's client.invoke span on the final reply cell, so
//            the root's recorded duration IS the measured TTLB
constexpr std::size_t kCellBytes = 64;

std::uint32_t get_u32(const bu::Bytes& d, std::size_t at) {
  return static_cast<std::uint32_t>(d[at]) |
         (static_cast<std::uint32_t>(d[at + 1]) << 8) |
         (static_cast<std::uint32_t>(d[at + 2]) << 16) |
         (static_cast<std::uint32_t>(d[at + 3]) << 24);
}

void put_u32(bu::Bytes& d, std::size_t at, std::uint32_t v) {
  d[at] = static_cast<std::uint8_t>(v & 0xff);
  d[at + 1] = static_cast<std::uint8_t>((v >> 8) & 0xff);
  d[at + 2] = static_cast<std::uint8_t>((v >> 16) & 0xff);
  d[at + 3] = static_cast<std::uint8_t>((v >> 24) & 0xff);
}

// Relay deliveries; read after run() returns, never fed back into the run.
std::uint64_t g_cells = 0;

/// Per-cell relay crypto stand-in: three hops' worth of ChaCha20-style
/// rounds (20 each) over a 64-byte state.
std::uint32_t mix_cell(std::uint32_t x) {
  std::uint32_t s[16];
  for (int i = 0; i < 16; ++i) s[i] = x + static_cast<std::uint32_t>(i) * 0x9e3779b9u;
  for (int round = 0; round < 30; ++round) {
    for (int i = 0; i < 4; ++i) {
      std::uint32_t& a = s[i];
      std::uint32_t& b = s[4 + i];
      std::uint32_t& c = s[8 + i];
      std::uint32_t& d = s[12 + i];
      a += b; d ^= a; d = (d << 16) | (d >> 16);
      c += d; b ^= c; b = (b << 12) | (b >> 20);
      a += b; d ^= a; d = (d << 8) | (d >> 24);
      c += d; b ^= c; b = (b << 7) | (b >> 25);
    }
  }
  std::uint32_t out = 0;
  for (std::uint32_t v : s) out ^= v;
  return out;
}

/// Stateless relay: mixes, bumps the stage, forwards along the embedded
/// path. The exit fans the request into the two reply cells.
class RelayHandler : public bs::MessageHandler {
 public:
  bs::Network* net = nullptr;
  bs::NodeId self = bs::kInvalidNode;

  void on_message(bs::NodeId /*from*/, bu::Bytes data) override {
    ++g_cells;
    if (data.size() < kCellBytes) return;
    // Inert (two loads) unless the cell carries a span context, i.e. the
    // run was started with --trace-spans.
    bo::SpanScope span(bo::Stage::RelayForward, self);
    const std::uint8_t stage = data[0];
    data[22] = static_cast<std::uint8_t>(mix_cell(data[22] + stage));
    // Destination is read into a local before std::move(data) — the by-value
    // send parameter may be constructed before the other argument is
    // evaluated, which would leave `data` empty under get_u32.
    switch (stage) {
      case 0: {  // guard, forward leg
        data[0] = 1;
        const bs::NodeId middle = get_u32(data, 10);
        net->send(self, middle, std::move(data));
        break;
      }
      case 1: {  // middle, forward leg
        data[0] = 2;
        const bs::NodeId exit_ = get_u32(data, 14);
        net->send(self, exit_, std::move(data));
        break;
      }
      case 2: {  // exit: answer with two reply cells
        data[0] = 3;
        data[1] = 0;
        bu::Bytes second = data;
        second[1] = 1;
        const bs::NodeId middle = get_u32(data, 10);
        net->send(self, middle, std::move(data));
        net->send(self, middle, std::move(second));
        break;
      }
      case 3: {  // middle, reply leg
        data[0] = 4;
        const bs::NodeId guard = get_u32(data, 6);
        net->send(self, guard, std::move(data));
        break;
      }
      case 4: {  // guard, reply leg
        data[0] = 5;
        const bs::NodeId edge = get_u32(data, 18);
        net->send(self, edge, std::move(data));
        break;
      }
      default:
        break;  // stage 5 belongs to the edge handler
    }
  }
};

/// Client edge: terminates reply cells for every session it fronts and
/// stamps the latency trace events the SLO engine consumes.
class EdgeHandler : public bs::MessageHandler {
 public:
  const std::vector<std::int64_t>* start_us = nullptr;
  std::uint64_t completed = 0;

  void on_message(bs::NodeId /*from*/, bu::Bytes data) override {
    if (data.size() < kCellBytes || data[0] != 5) return;
    const std::uint32_t idx = get_u32(data, 2);
    if (idx >= start_us->size()) return;
    const std::int64_t delta = bu::sim_now_micros() - (*start_us)[idx];
    if (data[1] == 0) {
      bo::trace(bo::Ev::StreamTtfb, idx, static_cast<std::uint64_t>(delta));
    } else {
      bo::trace(bo::Ev::StreamTtlb, idx, static_cast<std::uint64_t>(delta));
      // Close the session's root span (no-op when the cell carries no id):
      // same sim instant as the ttlb stamp, so blame sums match the series.
      bo::end_span(get_u32(data, 23), bo::Stage::ClientInvoke);
      ++completed;
    }
  }
};

struct Options {
  std::uint64_t clients = 100'000;
  std::uint64_t seed = 42;
  std::string out;        // BENCH_scenarios.json
  std::string trace_out;  // trace.jsonl
  std::vector<std::string> slo_specs;
  bool trace_spans = false;  // causal spans for bentotrace critpath
};

bool write_file(const std::string& path, const std::string& body) {
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    std::fprintf(stderr, "consensus_scale: cannot write %s\n", path.c_str());
    return false;
  }
  os << body;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "consensus_scale: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--clients") {
      opt.clients = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--out") {
      opt.out = value();
    } else if (arg == "--trace-out") {
      opt.trace_out = value();
    } else if (arg == "--trace-spans") {
      opt.trace_spans = true;
    } else if (arg == "--slo") {
      opt.slo_specs.push_back(value());
    } else {
      std::fprintf(stderr,
                   "usage: consensus_scale [--clients N] [--seed N] [--out FILE]\n"
                   "                       [--trace-out FILE] [--trace-spans]\n"
                   "                       [--slo SPEC]...\n");
      return 2;
    }
  }
  if (opt.clients == 0) {
    std::fprintf(stderr, "consensus_scale: --clients must be >= 1\n");
    return 2;
  }

  bs::Simulator sim(opt.seed);
  bs::Network net(sim);

  // The trace ring needs ttfb+ttlb per client; cap the mask to exactly those
  // kinds so the firehose kinds cost one branch each and the ring never
  // wraps. With --trace-spans, each session adds a root span, 9 net.link
  // spans (4 events each: begin, end, wire + idle budget notes), 7
  // relay.forward spans and the ref notes — ~75 events/session — so the
  // ring is sized accordingly.
  bo::recorder().enable(std::max<std::size_t>(
      std::size_t{1} << 18,
      static_cast<std::size_t>((opt.trace_spans ? 96 : 3) * opt.clients)));
  std::uint64_t mask = bo::Recorder::mask_of(bo::Ev::StreamTtfb) |
                       bo::Recorder::mask_of(bo::Ev::StreamTtlb);
  if (opt.trace_spans) {
    mask |= bo::Recorder::mask_of(bo::Ev::SpanBegin) |
            bo::Recorder::mask_of(bo::Ev::SpanEnd) |
            bo::Recorder::mask_of(bo::Ev::SpanNote) |
            bo::Recorder::mask_of(bo::Ev::ChaosFault);
  }
  bo::recorder().set_mask(mask);

  std::vector<std::unique_ptr<RelayHandler>> relays;
  std::vector<std::unique_ptr<EdgeHandler>> edges;
  std::vector<bs::NodeId> relay_ids;  // [group * kRelaysPerGroup + i]
  std::vector<bs::NodeId> edge_ids;   // [group * kEdgesPerGroup + i]
  for (int r = 0; r < kGroups; ++r) {
    for (int i = 0; i < kRelaysPerGroup; ++i) {
      auto h = std::make_unique<RelayHandler>();
      const bs::NodeId id = net.add_node(bs::NodeSpec{.name = "relay"}, h.get());
      h->net = &net;
      h->self = id;
      relay_ids.push_back(id);
      relays.push_back(std::move(h));
    }
  }
  std::vector<std::int64_t> start_us(opt.clients, 0);
  for (int r = 0; r < kGroups; ++r) {
    for (int i = 0; i < kEdgesPerGroup; ++i) {
      auto h = std::make_unique<EdgeHandler>();
      h->start_us = &start_us;
      const bs::NodeId id = net.add_node(bs::NodeSpec{.name = "edge"}, h.get());
      edge_ids.push_back(id);
      edges.push_back(std::move(h));
    }
  }
  for (int r = 0; r < kGroups; ++r) {
    for (int i = 0; i < kRelaysPerGroup; ++i) {
      for (int j = i + 1; j < kRelaysPerGroup; ++j) {
        net.set_latency(relay_ids[r * kRelaysPerGroup + i],
                        relay_ids[r * kRelaysPerGroup + j], Duration::millis(2));
      }
    }
    for (int e = 0; e < kEdgesPerGroup; ++e) {
      for (int i = 0; i < kRelaysPerGroup; ++i) {
        net.set_latency(edge_ids[r * kEdgesPerGroup + e],
                        relay_ids[r * kRelaysPerGroup + i], Duration::millis(10));
      }
    }
  }

  // Session schedule: client c starts at 1 s + c * 100 µs (a flash crowd
  // ramping over ~10 s at the default population), from an edge node in
  // group c % kGroups, through guard/middle/exit in pairwise different
  // groups so every chain takes the cross-group links.
  const Time ramp0 = Time::from_micros(1'000'000);
  for (std::uint64_t c = 0; c < opt.clients; ++c) {
    const auto r = static_cast<std::uint32_t>(c % kGroups);
    const std::uint64_t per = c / kGroups;
    const bs::NodeId edge = edge_ids[r * kEdgesPerGroup + per % kEdgesPerGroup];
    const bs::NodeId guard = relay_ids[r * kRelaysPerGroup + (c * 7 + 3) % kRelaysPerGroup];
    const auto rm = static_cast<std::uint32_t>((r + 1 + c % 7) % kGroups);
    const bs::NodeId middle = relay_ids[rm * kRelaysPerGroup + (c * 13 + 5) % kRelaysPerGroup];
    const auto re = static_cast<std::uint32_t>((rm + 1 + c % 5) % kGroups);
    const bs::NodeId exit_ = relay_ids[re * kRelaysPerGroup + (c * 17 + 7) % kRelaysPerGroup];
    const Time start = ramp0 + Duration::micros(static_cast<std::int64_t>(c) * 100);
    start_us[c] = start.micros();
    const bool spans = opt.trace_spans;
    sim.at(start, [&net, edge, guard, middle, exit_, c, spans] {
      bu::Bytes cell(kCellBytes, 0);
      cell[0] = 0;
      put_u32(cell, 2, static_cast<std::uint32_t>(c));
      put_u32(cell, 6, guard);
      put_u32(cell, 10, middle);
      put_u32(cell, 14, exit_);
      put_u32(cell, 18, edge);
      cell[22] = static_cast<std::uint8_t>(c);
      if (spans) {
        // Root span for the whole session; detached, because the edge ends
        // it when the final reply cell lands (its id rides in the cell).
        // The first send happens inside the scope so the link inherits it.
        bo::SpanScope root(bo::SpanScope::kRoot, bo::Stage::ClientInvoke,
                           static_cast<std::uint32_t>(c));
        put_u32(cell, 23, root.detach());
        net.send(edge, guard, std::move(cell));
      } else {
        net.send(edge, guard, std::move(cell));
      }
    });
  }

  const auto t0 = std::chrono::steady_clock::now();
  sim.run();
  const auto t1 = std::chrono::steady_clock::now();
  const double wall_s = std::chrono::duration<double>(t1 - t0).count();

  const std::uint64_t cells = g_cells;
  std::uint64_t completed = 0;
  for (const auto& e : edges) completed += e->completed;
  const double sim_s = static_cast<double>(sim.now().micros()) / 1e6;

  // SLO evaluation. Latency series come from the trace ring; scalars are
  // sim-domain quantities only, so the verdict is byte-stable.
  bo::SloInput input;
  input.collect_latencies(bo::recorder());
  input.set_scalar("cells_per_sim_sec",
                   sim_s > 0 ? static_cast<double>(cells) / sim_s : 0.0);
  input.set_scalar("completed_sessions", static_cast<double>(completed));

  std::vector<std::string> spec_texts = opt.slo_specs;
  if (spec_texts.empty()) {
    // Default objectives for the standing scenario. The path floor is
    // 180 ms of propagation (10+40+40 out, 40+40+10 back); serialize and
    // queueing add microseconds, so the ceilings are ~15-30% headroom.
    spec_texts = {
        "ttfb_us:count>=" + std::to_string(opt.clients),
        "ttfb_us:p50<=210000",
        "ttfb_us:p99<=230000",
        "ttfb_us:p99.9<=260000",
        "ttlb_us:p99<=260000",
        "completed_sessions>=" + std::to_string(opt.clients),
        "cells_per_sim_sec>=5000",
    };
  }
  std::vector<bo::SloSpec> specs;
  for (const std::string& text : spec_texts) {
    bo::SloSpec spec;
    std::string err;
    if (!bo::parse_slo_spec(text, spec, &err)) {
      std::fprintf(stderr, "consensus_scale: bad --slo '%s': %s\n", text.c_str(),
                   err.c_str());
      return 2;
    }
    specs.push_back(spec);
  }
  const bo::SloReport report = bo::evaluate_slos("consensus_scale", specs, input);

  // Artifacts.
  bool io_ok = true;
  if (!opt.out.empty()) io_ok &= write_file(opt.out, report.to_json());
  if (!opt.trace_out.empty()) {
    std::ofstream os(opt.trace_out, std::ios::binary);
    if (os) {
      bo::recorder().export_jsonl(os);
    } else {
      std::fprintf(stderr, "consensus_scale: cannot write %s\n", opt.trace_out.c_str());
      io_ok = false;
    }
  }
  std::fputs(report.to_string().c_str(), stderr);

  std::printf("{");
  std::printf("\"bench\": \"consensus_scale\", ");
  std::printf("\"groups\": %d, ", kGroups);
  std::printf("\"relays\": %d, ", kGroups * kRelaysPerGroup);
  std::printf("\"clients\": %llu, ", static_cast<unsigned long long>(opt.clients));
  std::printf("\"completed_sessions\": %llu, ", static_cast<unsigned long long>(completed));
  std::printf("\"cells\": %llu, ", static_cast<unsigned long long>(cells));
  std::printf("\"sim_seconds\": %.3f, ", sim_s);
  std::printf("\"wall_seconds\": %.3f, ", wall_s);
  std::printf("\"cells_per_wall_sec\": %.0f, ",
              wall_s > 0 ? static_cast<double>(cells) / wall_s : 0.0);
  std::printf("\"cells_per_sim_sec\": %.0f, ",
              sim_s > 0 ? static_cast<double>(cells) / sim_s : 0.0);
  std::printf("\"verdict\": \"%s\"", report.pass() ? "pass" : "fail");
  std::printf("}\n");

  if (!io_ok) return 2;
  return report.pass() ? 0 : 1;
}
