// bento_perfbench: runs one workload of the real-stack benchmark and prints
// every metric it measured as one JSON object on stdout. perfbench/run.py
// builds this binary, adds the sim-time critical path from bentotrace and
// the host context, and prints the benchmark's result line.
//
//   bento_perfbench --workload echo|dropbox|session|browse --seed N
//                   --seconds S --trace 0|1 [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that gives the per-layer metrics (README.md).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "build_info.hpp"
#include "host_speed.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "probes.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Deployment;
using perfbench::Inputs;
using perfbench::Kind;
using perfbench::median;
using perfbench::Metrics;
using perfbench::quantile;
using Clock = std::chrono::steady_clock;
namespace obs = bento::obs;

// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 7;
// The timed phase is cut into kSlices equal slices, short enough that the
// host's speed is about constant across one; each slice's times are divided
// by the host speed factor measured at its ends (host_speed.hpp).
constexpr int kSlices = 100;
// Latency samples kept per slice.
constexpr std::size_t kSliceSamples = 1024;
// Events the traced batch may record before the ring wraps.
constexpr std::size_t kRingEvents = std::size_t{1} << 21;

/// Ops in the fixed batch that gives allocs_per_op, the sim latencies and
/// the per-op registry counts: the same ops for the same seed, so those
/// figures repeat exactly. A batch of the same length runs first as warm-up.
std::size_t batch_ops(Kind kind) {
  switch (kind) {
    case Kind::Echo:
      return 200;
    case Kind::Dropbox:
      return 400;
    case Kind::Session:
      return 20;
    case Kind::Browse:
      return 10;
  }
  return 0;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// VmHWM of this process image. (getrusage's ru_maxrss would also count the
/// launching process's peak, which Linux carries across exec.)
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = std::atoi(value.c_str());
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0 &&
         (args.trace == 0 || args.trace == 1);
}

/// Builds the deployment `repeats` times, one world alive at a time, and
/// keeps the last; `median_s` is the median build time, each divided by the
/// host speed factor around it.
std::unique_ptr<Deployment> set_up(const Inputs& in, int repeats, double* median_s) {
  std::vector<double> times;
  std::unique_ptr<Deployment> d;
  for (int r = 0; r < repeats; ++r) {
    d.reset();
    const double speed0 = perfbench::speed_factor();
    const auto t0 = Clock::now();
    d = std::make_unique<Deployment>(in);
    const double s = seconds_since(t0);
    times.push_back(s / ((speed0 + perfbench::speed_factor()) / 2));
  }
  *median_s = median(times);
  return d;
}

/// The fixed batch: ops [first, first + n). Returns the sim latencies (ms)
/// and the heap allocations the batch made.
std::vector<double> run_batch(Deployment& d, std::size_t first, std::size_t n,
                              Tally& tally, std::uint64_t* allocs) {
  std::vector<double> sim_ms;
  sim_ms.reserve(n);
  const std::uint64_t before = perfbench::allocations();
  for (std::size_t i = first; i < first + n; ++i) {
    const perfbench::OpOutcome r = d.run_op(i);
    tally.add(r.ok);
    sim_ms.push_back(static_cast<double>(r.sim_us) / 1e3);
  }
  *allocs = perfbench::allocations() - before;
  return sim_ms;
}

struct Slice {
  explicit Slice(std::uint64_t seed)
      : wall_us(kSliceSamples, seed), put_us(kSliceSamples, seed + 1),
        get_us(kSliceSamples, seed + 2) {}
  double wall_s = 0;
  double cpu_s = 0;
  double speed = 1;  // host speed factor, sampled before and after the slice
  std::uint64_t ops = 0;
  std::uint64_t bytes = 0;
  std::uint64_t sim_events = 0;
  perfbench::Reservoir wall_us;
  perfbench::Reservoir put_us;
  perfbench::Reservoir get_us;
};

/// Closed loop for `seconds`, in kSlices equal slices; `before_slice(s)`
/// runs between slices, outside the timed ops.
std::vector<Slice> timed_phase(Deployment& d, std::size_t first_op, double seconds,
                               Tally& tally, const std::function<void(int)>& before_slice) {
  std::vector<Slice> slices;
  slices.reserve(kSlices);
  for (int s = 0; s < kSlices; ++s) slices.emplace_back(first_op + 3 * static_cast<std::uint64_t>(s));
  obs::Counter events = obs::registry().counter("sim.events");
  const double slice_s = seconds / kSlices;
  std::size_t op = first_op;
  double boundary_speed = perfbench::speed_factor();
  for (Slice& slice : slices) {
    if (before_slice) before_slice(static_cast<int>(&slice - slices.data()));
    const double speed0 = boundary_speed;
    const std::uint64_t events0 = events.value();
    const double cpu0 = cpu_seconds();
    const auto start = Clock::now();
    while (seconds_since(start) < slice_s) {
      const auto t0 = Clock::now();
      const perfbench::OpOutcome r = d.run_op(op++);
      const double us = seconds_since(t0) * 1e6;
      tally.add(r.ok);
      slice.wall_us.add(us);
      if (r.put) slice.put_us.add(us);
      if (r.get) slice.get_us.add(us);
      ++slice.ops;
      slice.bytes += r.payload_bytes;
    }
    slice.wall_s = seconds_since(start);
    slice.cpu_s = cpu_seconds() - cpu0;
    slice.sim_events = events.value() - events0;
    boundary_speed = perfbench::speed_factor();
    slice.speed = (speed0 + boundary_speed) / 2;
  }
  return slices;
}

/// The timed figures of a set of slices, each slice's times divided by its
/// host speed factor (host_speed.hpp).
struct Summary {
  double ops_per_s = 0;
  double goodput_mb_s = 0;
  double cpu_us_per_op = 0;
  double wall_p50 = 0;
  double wall_p90 = 0;
  double put_p50 = 0;
  double get_p50 = 0;
  double event_ns = 0;
  double raw_ops_per_s = 0;  // not normalized
  double speed = 0;          // median speed factor over the slices
  std::uint64_t ops = 0;
};

Summary summarize(const std::vector<const Slice*>& slices) {
  double wall = 0;
  double raw_wall = 0;
  double cpu = 0;
  std::uint64_t bytes = 0;
  std::uint64_t events = 0;
  std::vector<double> walls, puts, gets, speeds;
  const auto scaled = [](std::vector<double>& out, const perfbench::Reservoir& r, double speed) {
    for (double us : r.samples()) out.push_back(us / speed);
  };
  Summary out;
  for (const Slice* s : slices) {
    wall += s->wall_s / s->speed;
    raw_wall += s->wall_s;
    cpu += s->cpu_s / s->speed;
    bytes += s->bytes;
    events += s->sim_events;
    out.ops += s->ops;
    scaled(walls, s->wall_us, s->speed);
    scaled(puts, s->put_us, s->speed);
    scaled(gets, s->get_us, s->speed);
    speeds.push_back(s->speed);
  }
  const double ops = static_cast<double>(out.ops);
  out.ops_per_s = ops / wall;
  out.raw_ops_per_s = ops / raw_wall;
  out.goodput_mb_s = static_cast<double>(bytes) / 1e6 / wall;
  out.cpu_us_per_op = cpu * 1e6 / ops;
  out.wall_p50 = quantile(walls, 0.5);
  out.wall_p90 = quantile(walls, 0.9);
  out.put_p50 = quantile(puts, 0.5);
  out.get_p50 = quantile(gets, 0.5);
  out.event_ns = wall * 1e9 / static_cast<double>(events);
  out.speed = median(speeds);
  return out;
}

/// Every `stride`-th slice from `offset`.
std::vector<const Slice*> every(const std::vector<Slice>& slices, int stride, int offset) {
  std::vector<const Slice*> out;
  for (std::size_t s = static_cast<std::size_t>(offset); s < slices.size();
       s += static_cast<std::size_t>(stride)) {
    out.push_back(&slices[s]);
  }
  return out;
}

/// Registry counters the traced run reads as deltas.
struct Counts {
  std::uint64_t cells = 0;
  std::uint64_t recognized = 0;
  std::uint64_t unrecognized = 0;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t ecalls = 0;
  std::uint64_t attests = 0;
  std::uint64_t token_failures = 0;
  std::uint64_t epc_faults = 0;
  std::uint64_t trips = 0;
  std::uint64_t denials = 0;
};

Counts read_counts() {
  obs::Registry& r = obs::registry();
  auto v = [&](const char* name) { return r.counter(name).value(); };
  Counts c;
  c.cells = v("tor.origin.cells_sent") + v("tor.origin.cells_received");
  c.recognized = v("tor.recognition.hits");
  c.unrecognized = v("tor.recognition.misses");
  c.events = v("sim.events");
  c.messages = v("net.messages");
  c.bytes = v("net.bytes");
  c.ecalls = v("tee.ecalls");
  c.attests = v("tee.attest_rounds");
  c.token_failures = v("bento.token_failures");
  c.epc_faults = v("tee.epc_page_faults");
  c.trips = v("sandbox.resource_trips");
  c.denials = v("sandbox.syscall_denials");
  return c;
}

void untraced_run(const Inputs& in, const Args& args, Tally& tally, Metrics& m) {
  double setup_s = 0;
  std::unique_ptr<Deployment> d = set_up(in, kSetupRepeats, &setup_s);
  const std::size_t n = batch_ops(in.kind);
  std::uint64_t allocs = 0;
  run_batch(*d, 0, n, tally, &allocs);
  const std::vector<double> sim_ms = run_batch(*d, n, n, tally, &allocs);
  const std::vector<Slice> slices = timed_phase(*d, 2 * n, args.seconds, tally, nullptr);
  const Summary t = summarize(every(slices, 1, 0));

  m.push_back({"ops_per_s", t.ops_per_s, "1/s"});
  m.push_back({"goodput_mb_s", t.goodput_mb_s, "MB/s"});
  m.push_back({"cpu_us_per_op", t.cpu_us_per_op, "us"});
  m.push_back({"allocs_per_op", static_cast<double>(allocs) / static_cast<double>(n), "count"});
  m.push_back({"op_wall_us_p50", t.wall_p50, "us"});
  m.push_back({"op_wall_us_p90", t.wall_p90, "us"});
  m.push_back({"sim_latency_ms_p50", quantile(sim_ms, 0.5), "ms"});
  m.push_back({"sim_latency_ms_p90", quantile(sim_ms, 0.9), "ms"});
  m.push_back({"setup_s", setup_s, "s"});
  m.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  if (in.kind == Kind::Dropbox) {
    m.push_back({"put_wall_us_p50", t.put_p50, "us"});
    m.push_back({"get_wall_us_p50", t.get_p50, "us"});
  }
  m.push_back({"op_wall.samples", static_cast<double>(t.ops), "count"});
  m.push_back({"ops_per_s.raw", t.raw_ops_per_s, "1/s"});
  m.push_back({"host.speed_factor", t.speed, "ratio"});
  m.push_back({"sim_latency.samples", static_cast<double>(sim_ms.size()), "count"});
}

void traced_run(const Inputs& in, const Args& args, Tally& tally, Metrics& m) {
  double setup_s = 0;
  std::unique_ptr<Deployment> d = set_up(in, 1, &setup_s);
  const std::size_t n = batch_ops(in.kind);
  const Counts start = read_counts();
  std::uint64_t allocs = 0;
  run_batch(*d, 0, n, tally, &allocs);

  // The traced batch: the same ops the untraced run measures, recorded for
  // bentotrace (every event kind but the per-dispatch firehose).
  obs::Recorder& rec = obs::recorder();
  const std::uint64_t trace_mask =
      obs::Recorder::mask_all() & ~obs::Recorder::mask_of(obs::Ev::SimDispatch);
  const Counts before = read_counts();
  rec.enable(kRingEvents);
  rec.set_mask(trace_mask);
  run_batch(*d, n, n, tally, &allocs);
  rec.set_mask(0);
  const Counts after = read_counts();
  if (rec.overwritten() > 0) {
    std::cerr << "perfbench: trace ring wrapped; critpath covers the newest ops only\n";
  }
  if (!args.trace_out.empty()) {
    std::ofstream out(args.trace_out);
    rec.export_jsonl(out);
    if (!out) throw std::runtime_error("cannot write " + args.trace_out);
  }

  const auto per_op = [&](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a) / static_cast<double>(n);
  };
  m.push_back({"tor.cells_per_op", per_op(before.cells, after.cells), "count/op"});
  const std::uint64_t seen = (after.recognized - before.recognized) +
                             (after.unrecognized - before.unrecognized);
  m.push_back({"tor.recognition_miss_ratio",
               seen == 0 ? 0.0
                         : static_cast<double>(after.unrecognized - before.unrecognized) /
                               static_cast<double>(seen),
               "ratio"});
  m.push_back({"sim.events_per_op", per_op(before.events, after.events), "count/op"});
  m.push_back({"net.messages_per_op", per_op(before.messages, after.messages), "count/op"});
  m.push_back({"net.bytes_per_op", per_op(before.bytes, after.bytes), "B/op"});
  m.push_back({"tee.ecalls_per_op", per_op(before.ecalls, after.ecalls), "count/op"});
  m.push_back({"tee.attest_rounds_per_op", per_op(before.attests, after.attests), "count/op"});

  // Untraced and traced slices alternate, so host drift hits both sides.
  const std::vector<Slice> slices = timed_phase(
      *d, 2 * n, args.seconds, tally, [&](int s) { rec.set_mask(s % 2 == 1 ? trace_mask : 0); });
  rec.disable();
  const Summary plain = summarize(every(slices, 2, 0));
  const Summary traced = summarize(every(slices, 2, 1));
  m.push_back({"sim.event_ns", plain.event_ns, "ns"});
  m.push_back({"tracing_overhead_pct",
               (plain.ops_per_s - traced.ops_per_s) / plain.ops_per_s * 100.0, "%"});

  perfbench::probe_layers(in, m);
  perfbench::probe_sessions(*d, in, m);

  const Counts end = read_counts();
  m.push_back({"core.token_failures", static_cast<double>(end.token_failures - start.token_failures), "count"});
  m.push_back({"tee.epc_page_faults", static_cast<double>(end.epc_faults - start.epc_faults), "count"});
  m.push_back({"sandbox.resource_trips", static_cast<double>(end.trips - start.trips), "count"});
  m.push_back({"sandbox.syscall_denials", static_cast<double>(end.denials - start.denials), "count"});
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: bento_perfbench --workload echo|dropbox|session|browse "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n";
    return 2;
  }
  const std::optional<Kind> kind = perfbench::parse_kind(args.workload);
  if (!kind.has_value()) {
    std::cerr << "bento_perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }

  Tally tally;
  Metrics metrics;
  try {
    const Inputs in = perfbench::make_inputs(*kind, args.seed);
    if (args.trace == 0) {
      untraced_run(in, args, tally, metrics);
    } else {
      traced_run(in, args, tally, metrics);
    }
  } catch (const std::exception& e) {
    std::cerr << "bento_perfbench: " << e.what() << "\n";
    return 1;
  }

  bool finite = true;
  std::printf("{\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"attempted\": %llu, "
              "\"failed\": %llu,\n \"build\": {\"build_type\": %s, \"compiler\": %s, "
              "\"cxx_flags\": %s},\n \"metrics\": {",
              json_string(args.workload).c_str(), static_cast<unsigned long long>(args.seed),
              args.trace, static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed),
              json_string(perfbench::kBuildType).c_str(),
              json_string(perfbench::kCompiler).c_str(),
              json_string(perfbench::kCxxFlags).c_str());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const perfbench::Metric& mt = metrics[i];
    finite = finite && std::isfinite(mt.value);
    std::printf("%s\n  %s: {\"value\": %.17g, \"unit\": %s}", i == 0 ? "" : ",",
                json_string(mt.name).c_str(), std::isfinite(mt.value) ? mt.value : 0.0,
                json_string(mt.unit).c_str());
  }
  std::printf("}}\n");
  if (!finite) std::cerr << "bento_perfbench: a metric is not a finite number\n";
  return tally.failed == 0 && finite ? 0 : 1;
}
