#include "workloads.hpp"

#include <chrono>
#include <stdexcept>

#include "functions/library.hpp"
#include "util/rng.hpp"
#include "util/zlite.hpp"
#include "wf/sites.hpp"

namespace perfbench {

namespace bc = bento::core;
namespace bf = bento::functions;
namespace bt = bento::tor;
namespace bu = bento::util;
namespace bw = bento::wf;

namespace {

using Clock = std::chrono::steady_clock;

double since_us(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

constexpr char kEchoSource[] = "def on_message(msg):\n    api.send(msg)\n";
// Distinct payloads per workload, and the length of the seeded op schedule
// the timed loop cycles through.
constexpr std::size_t kPoolSize = 64;
constexpr std::size_t kScheduleLength = 4096;
// dropbox_source() expires the file after this many GETs without a PUT.
constexpr int kDropboxMaxGets = 100;

bc::BentoWorldOptions world_options(Kind kind) {
  bc::BentoWorldOptions o;
  if (kind == Kind::Browse) {
    // Table 2's testbed (bench/table2_download_times.cpp): live-Tor-like
    // circuit throughput and wide-area latencies.
    o.testbed.seed = 77;
    o.testbed.relay_bandwidth = 250e3;
    o.testbed.min_latency = bu::Duration::millis(15);
    o.testbed.max_latency = bu::Duration::millis(60);
  }
  return o;
}

/// Boxes a deployment spreads its ops over: every relay (all are Bento
/// boxes), or for browse every exit, since only exits reach the clearnet.
std::size_t box_count(Kind kind) {
  const bt::TestbedOptions t = world_options(kind).testbed;
  return static_cast<std::size_t>(kind == Kind::Browse ? t.exits
                                                       : t.guards + t.middles + t.exits);
}

/// Function budgets are cumulative over a function's lifetime, so a run of
/// thousands of ops trips the stock manifests (the Browser's 256 MiB of
/// network is gone in seconds). Use the permissive policy's ceilings.
bc::FunctionManifest budget_safe(bc::FunctionManifest m) {
  m.resources.cpu_instructions = 2'000'000'000ULL;
  m.resources.network_bytes = 4ull << 30;
  return m;
}

bc::FunctionManifest echo_manifest() {
  bc::FunctionManifest m;
  m.name = "echo";
  m.image = bc::kImagePythonOpSgx;
  m.resources.memory_bytes = 64ull << 20;
  m.resources.disk_bytes = 1ull << 20;
  return budget_safe(m);
}

bu::Bytes prefixed(const char* prefix, const bu::Bytes& body) {
  bu::Bytes out = bu::to_bytes(prefix);
  bu::append(out, body);
  return out;
}

std::uint32_t draw(bu::Rng& rng, std::size_t n) {
  return static_cast<std::uint32_t>(rng.uniform(0, n - 1));
}

void make_dropbox_inputs(Inputs& in, bu::Rng& rng, std::size_t min_bytes,
                         std::size_t max_bytes) {
  in.source = bf::dropbox_source();
  in.manifest = budget_safe(bf::dropbox_manifest());
  // Stratified sizes: one uniform draw in each 1/kPoolSize of the range, so
  // every seed's pool has about the same mean size.
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    const double u = (static_cast<double>(i) + rng.uniform01()) / kPoolSize;
    const auto size = static_cast<std::size_t>(
        static_cast<double>(min_bytes) + u * static_cast<double>(max_bytes - min_bytes));
    in.payloads.push_back(rng.bytes(size));
    in.requests.push_back(prefixed("PUT:", in.payloads.back()));
    in.replies.push_back(bu::to_bytes("OK"));
  }
  in.get_request = bu::to_bytes("GET:");
}

}  // namespace

std::optional<Kind> parse_kind(const std::string& name) {
  if (name == "echo") return Kind::Echo;
  if (name == "dropbox") return Kind::Dropbox;
  if (name == "session") return Kind::Session;
  if (name == "browse") return Kind::Browse;
  return std::nullopt;
}

Inputs make_inputs(Kind kind, std::uint64_t seed) {
  Inputs in;
  in.kind = kind;
  in.seed = seed;
  bu::Rng rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(kind) + 1);
  const std::size_t boxes = box_count(kind);
  switch (kind) {
    case Kind::Echo:
      in.source = kEchoSource;
      in.manifest = echo_manifest();
      for (std::size_t i = 0; i < kPoolSize; ++i) {
        in.payloads.push_back(rng.bytes(256));
        in.requests.push_back(in.payloads.back());
        in.replies.push_back(in.payloads.back());
      }
      for (std::size_t i = 0; i < kScheduleLength; ++i) {
        in.schedule.push_back({draw(rng, boxes), draw(rng, kPoolSize), false});
      }
      break;
    case Kind::Dropbox: {
      make_dropbox_inputs(in, rng, 1024, 64 * 1024);
      // PUT:GET = 1:3, except that a box's first op is a PUT and no box
      // reaches max_gets GETs in a row, so every GET has bytes to return.
      std::vector<int> gets_since_put(boxes, -1);
      for (std::size_t i = 0; i < kScheduleLength; ++i) {
        const std::uint32_t box = draw(rng, boxes);
        const bool coin = rng.chance(0.25);
        int& gets = gets_since_put[box];
        const bool put = coin || gets < 0 || gets >= kDropboxMaxGets - 1;
        gets = put ? 0 : gets + 1;
        in.schedule.push_back({box, draw(rng, kPoolSize), put});
      }
      break;
    }
    case Kind::Session:
      make_dropbox_inputs(in, rng, 1024, 4 * 1024);
      for (std::size_t i = 0; i < kScheduleLength; ++i) {
        in.schedule.push_back({draw(rng, boxes), draw(rng, kPoolSize), true});
      }
      break;
    case Kind::Browse: {
      in.source = bf::browser_source();
      in.manifest = budget_safe(bf::browser_manifest());
      // The bundles are built here, once, so the web servers only serve
      // cached bytes and content generation is never timed.
      const std::vector<bw::SiteModel> sites = bw::table2_sites();
      std::vector<bu::Bytes> bundles = site_bundles();
      for (std::size_t i = 0; i < sites.size(); ++i) {
        const bw::SiteModel& site = sites[i];
        bu::Bytes& bundle = bundles[i];
        bu::Bytes compressed = bu::zlite::compress(bundle);
        if (bu::zlite::decompress(compressed) != bundle) {
          throw std::runtime_error("zlite round trip failed for " + site.domain);
        }
        in.site_addrs.push_back(site.addr);
        in.requests.push_back(
            bu::to_bytes("http://" + bt::format_addr(site.addr) + "/bundle 0"));
        in.replies.push_back(std::move(compressed));
        in.payloads.push_back(std::move(bundle));
      }
      // Seeded order: each round visits all five sites in a fresh shuffle.
      std::vector<std::uint32_t> order(in.payloads.size());
      while (in.schedule.size() < kScheduleLength) {
        for (std::size_t s = 0; s < order.size(); ++s) order[s] = static_cast<std::uint32_t>(s);
        rng.shuffle(order);
        for (std::uint32_t site : order) in.schedule.push_back({draw(rng, boxes), site, false});
      }
      break;
    }
  }
  return in;
}

std::vector<bu::Bytes> site_bundles() {
  std::vector<bu::Bytes> out;
  for (const bw::SiteModel& site : bw::table2_sites()) {
    bu::Bytes bundle = site.body_for("/", 1, 0.0);
    for (std::size_t r = 0; r < site.resource_bytes.size(); ++r) {
      bu::append(bundle, site.body_for("/r" + std::to_string(r), 1, 0.0));
    }
    out.push_back(std::move(bundle));
  }
  return out;
}

Deployment::Deployment(const Inputs& inputs) : in_(inputs) {
  world_ = std::make_unique<bc::BentoWorld>(world_options(in_.kind));
  world_->start();
  for (std::size_t i = 0; i < in_.site_addrs.size(); ++i) {
    const bu::Bytes* bundle = &in_.payloads[i];
    world_->bed().add_web_server(
        in_.site_addrs[i],
        [bundle](const std::string& path) -> std::optional<bu::Bytes> {
          if (path == "/bundle") return *bundle;
          return std::nullopt;
        },
        4e6);
  }
  client_ = world_->make_client("bench", in_.kind == Kind::Browse ? 4e6 : 1.25e6);

  const bt::Consensus& consensus = world_->bed().consensus();
  if (in_.kind == Kind::Browse) {
    for (const auto& relay : consensus.relays) {
      if (relay.flags.exit && relay.flags.bento) boxes_.push_back(relay.fingerprint());
    }
  } else {
    boxes_ = bc::BentoClient::find_boxes(consensus);
  }
  if (boxes_.size() != box_count(in_.kind)) {
    throw std::runtime_error("unexpected number of Bento boxes in the consensus");
  }
  bu::Rng rng(in_.seed ^ 0xb0c5b0c5ULL);
  rng.shuffle(boxes_);

  if (in_.kind != Kind::Session) {
    for (const std::string& box : boxes_) {
      SessionTiming timing;
      std::optional<Open> o = open(box, timing);
      if (!o.has_value()) throw std::runtime_error("deploy failed on box " + box);
      deployed_.push_back(std::move(*o));
    }
  }
  last_put_.assign(boxes_.size(), -1);
}

std::optional<Deployment::Open> Deployment::open(const std::string& box,
                                                 SessionTiming& timing) {
  // world.run() returns at quiescence, which can be long after the reply
  // (a circuit-build watchdog idles 30 s of sim time), so each phase's sim
  // time ends at its callback.
  bc::BentoWorld& world = *world_;
  Open o;
  std::int64_t issued = now_us();
  std::int64_t done_at = issued;
  auto t0 = Clock::now();
  client_.bento->connect(box, [&](std::shared_ptr<bc::BentoConnection> c) {
    o.conn = std::move(c);
    done_at = now_us();
  });
  world.run();
  timing.connect_us = since_us(t0);
  timing.sim_us += done_at - issued;
  if (o.conn == nullptr) return std::nullopt;

  bool spawned = false;
  issued = now_us();
  t0 = Clock::now();
  o.conn->spawn(in_.manifest.image, [&](bool ok, std::string) {
    spawned = ok;
    done_at = now_us();
  });
  world.run();
  timing.spawn_us = since_us(t0);
  timing.sim_us += done_at - issued;

  std::optional<bc::TokenPair> tokens;
  if (spawned && o.conn->attested()) {
    issued = now_us();
    t0 = Clock::now();
    o.conn->upload(in_.manifest, in_.source, "", {},
                   [&](std::optional<bc::TokenPair> t, std::string) {
                     tokens = std::move(t);
                     done_at = now_us();
                   });
    world.run();
    timing.upload_us = since_us(t0);
    timing.sim_us += done_at - issued;
  }
  if (!tokens.has_value()) {
    o.conn->close();
    world.run();
    return std::nullopt;
  }
  o.invocation = tokens->invocation.bytes();
  o.shutdown = tokens->shutdown.bytes();
  o.conn->set_output_handler([this](bu::Bytes out) {
    outputs_.push_back(std::move(out));
    output_sim_us_ = now_us();
  });
  return o;
}

bool Deployment::invoke(Open& open, const bu::Bytes& request, const bu::Bytes& expect,
                        std::int64_t* sim_us) {
  outputs_.clear();
  const std::int64_t start = now_us();
  open.conn->invoke(open.invocation, request);
  world_->run();
  *sim_us = output_sim_us_ - start;
  return outputs_.size() == 1 && outputs_.front() == expect;
}

bool Deployment::session(const std::string& box, const bu::Bytes* request,
                         const bu::Bytes* expect, SessionTiming& timing) {
  std::optional<Open> o = open(box, timing);
  if (!o.has_value()) return false;
  bool ok = true;
  if (request != nullptr) {
    std::int64_t invoke_sim_us = 0;
    ok = invoke(*o, *request, *expect, &invoke_sim_us);
    timing.sim_us += invoke_sim_us;
  }
  bool down = false;
  const std::int64_t issued = now_us();
  std::int64_t done_at = issued;
  const auto t0 = Clock::now();
  o->conn->shutdown(o->shutdown, [&](bool done) {
    down = done;
    done_at = now_us();
  });
  world_->run();
  timing.shutdown_us = since_us(t0);
  timing.sim_us += done_at - issued;
  o->conn->close();
  world_->run();
  return ok && down;
}

OpOutcome Deployment::run_op(std::size_t i) {
  const Step& step = in_.schedule[i % in_.schedule.size()];
  const bu::Bytes& request = in_.requests[step.payload];
  const bu::Bytes& reply = in_.replies[step.payload];
  OpOutcome r;
  switch (in_.kind) {
    case Kind::Session: {
      r.put = true;
      SessionTiming timing;
      r.ok = session(boxes_[step.box], &request, &reply, timing);
      r.sim_us = timing.sim_us;
      r.payload_bytes = request.size() + reply.size();
      return r;
    }
    case Kind::Dropbox:
      if (step.put) {
        r.put = true;
        r.ok = invoke(deployed_[step.box], request, reply, &r.sim_us);
        if (r.ok) last_put_[step.box] = static_cast<int>(step.payload);
        r.payload_bytes = request.size() + reply.size();
      } else {
        r.get = true;
        const int last = last_put_[step.box];
        if (last < 0) return r;  // the schedule never GETs before a PUT
        const bu::Bytes& stored = in_.payloads[static_cast<std::size_t>(last)];
        r.ok = invoke(deployed_[step.box], in_.get_request, stored, &r.sim_us);
        r.payload_bytes = in_.get_request.size() + stored.size();
      }
      return r;
    case Kind::Echo:
    case Kind::Browse:
      r.ok = invoke(deployed_[step.box], request, reply, &r.sim_us);
      r.payload_bytes = request.size() + reply.size();
      return r;
  }
  return r;
}

}  // namespace perfbench
