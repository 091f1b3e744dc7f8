// Declarative service-level objectives over a simulated run (DESIGN.md §13).
//
// An SLO is a predicate over an *actual* computed from a sample series: a
// percentile / count / mean / max / min over, e.g., "ttfb_us" (the
// stream.ttfb latencies of a trace) or "critpath.total_us" (one request's
// critical-path duration per sample). `bentotrace slo` builds every series
// from a trace dump, so all inputs are sim-domain quantities and a verdict
// is byte-identical across repeated runs at fixed (seed, topology).
// Wall-clock numbers are deliberately not admissible inputs.
//
// Spec strings (parse_slo_spec), always `series:aggregator`:
//   ttfb_us:p99<=250000        p99 of series "ttfb_us" must be <= 250000
//   ttfb_us:p99.9<=400000      fractional percentiles allowed
//   ttfb_us:count>=100000      sample count floor
//   ttlb_us:mean<=120000       mean ceiling
//   critpath.total_us:max<=765000
// Percentiles use the nearest-rank definition on the sorted series.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace bento::obs {

struct SloSpec {
  enum class Agg { Percentile, Count, Mean, Max, Min };
  enum class Op { Le, Ge };

  std::string metric;       // series name
  Agg agg = Agg::Percentile;
  double pct = 0;           // percentile, for Agg::Percentile
  Op op = Op::Le;
  double target = 0;

  /// Canonical display name, e.g. "ttfb_us:p99".
  std::string name() const;
};

/// Parses one spec string; returns false (with *err set, if given) on
/// malformed input. Accepted ops: "<=" and ">="; the aggregator is required.
bool parse_slo_spec(std::string_view text, SloSpec& out, std::string* err = nullptr);

/// Run data the objectives are evaluated against.
struct SloInput {
  std::map<std::string, std::vector<std::int64_t>> series;

  void add_sample(const std::string& name, std::int64_t v) {
    series[name].push_back(v);
  }
};

struct SloResult {
  SloSpec spec;
  double actual = 0;
  bool ok = false;
  bool missing = false;  // metric absent from the input; always a failure
};

struct SloReport {
  std::string scenario;
  std::vector<SloResult> results;

  bool pass() const;

  /// Human-readable verdict table.
  std::string to_string() const;
};

/// Nearest-rank percentile over an unsorted series (sorts a copy); 0 when
/// the series is empty.
std::int64_t slo_percentile(std::vector<std::int64_t> samples, double pct);

/// Evaluates every spec against the input. Specs whose series is absent or
/// empty (for any aggregate but count) are reported missing and fail the
/// run — a silent no-data pass is the one outcome an SLO gate must never
/// produce.
SloReport evaluate_slos(std::string scenario, const std::vector<SloSpec>& specs,
                        const SloInput& input);

}  // namespace bento::obs
