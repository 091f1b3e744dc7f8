// Sim-time metrics registry (DESIGN.md §8).
//
// Overhead contract: every hot-path operation is O(1), allocation-free, and
// works through a pre-registered handle — registration interns the name in
// a map exactly once, after which an increment is a branch on the global
// enable flag plus a pointer-indirect add. No map lookups, no string
// hashing, no formatting on the event path. When metrics are disabled the
// branch is perfectly predicted and nothing else runs. tests/alloc_test.cpp
// counts 0 heap allocations through the instrumented 3-hop cell loop, and
// bench/run_benchmarks.sh bounds live metrics at 10% of its time.
//
// Cells live for the life of the process (the registry only ever grows and
// reset() zeroes values in place), so handles never dangle — call sites can
// cache them in function-local statics.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/annotations.hpp"

namespace bento::obs {

namespace detail {
/// Constant-initialized: metrics are collected by default; flip off to make
/// every handle a no-op (bench proves the two modes are within noise on the
/// cell datapath, so "on" is the safe default for scenarios).
inline bool g_metrics_enabled = true;
}  // namespace detail

inline void set_metrics_enabled(bool on) { detail::g_metrics_enabled = on; }

struct CounterCell {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeCell {
  std::string name;
  std::int64_t value = 0;
  std::int64_t high_water = std::numeric_limits<std::int64_t>::min();
};

struct HistogramCell {
  std::string name;
  // Ascending upper bounds; buckets has bounds.size() + 1 slots. A value v
  // lands in the first bucket whose bound is strictly greater than v; values
  // >= the last bound land in the final (overflow) bucket. So bucket 0 is
  // [-inf, bounds[0]), bucket i is [bounds[i-1], bounds[i]), and an exact
  // edge value bounds[i] belongs to bucket i + 1.
  std::vector<std::int64_t> bounds;
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t min = std::numeric_limits<std::int64_t>::max();
  std::int64_t max = std::numeric_limits<std::int64_t>::min();
};

/// Monotone event count. Copyable value handle; default-constructed handles
/// are inert.
class Counter {
 public:
  Counter() = default;
  BENTO_HOT void inc(std::uint64_t n = 1) {
    if (!detail::g_metrics_enabled || cell_ == nullptr) return;
    cell_->value += n;
  }
  std::uint64_t value() const { return cell_ != nullptr ? cell_->value : 0; }

 private:
  friend class Registry;
  explicit Counter(CounterCell* cell) : cell_(cell) {}
  CounterCell* cell_ = nullptr;
};

/// Point-in-time level with a high-water mark (queue depths, live objects).
class Gauge {
 public:
  Gauge() = default;
  BENTO_HOT void set(std::int64_t v) {
    if (!detail::g_metrics_enabled || cell_ == nullptr) return;
    cell_->value = v;
    if (v > cell_->high_water) cell_->high_water = v;
  }
  BENTO_HOT void add(std::int64_t delta) {
    if (cell_ != nullptr) set(cell_->value + delta);
  }
  std::int64_t value() const { return cell_ != nullptr ? cell_->value : 0; }
  std::int64_t high_water() const {
    if (cell_ == nullptr) return 0;
    const std::int64_t hw = cell_->high_water;
    return hw != std::numeric_limits<std::int64_t>::min() ? hw : 0;
  }

 private:
  friend class Registry;
  explicit Gauge(GaugeCell* cell) : cell_(cell) {}
  GaugeCell* cell_ = nullptr;
};

/// Fixed-bucket histogram; bounds are frozen at registration. record() is a
/// short linear scan over the bounds (latency specs are ~a dozen entries,
/// branch behavior is stable), then three adds.
class Histogram {
 public:
  Histogram() = default;
  BENTO_HOT void record(std::int64_t v) {
    if (!detail::g_metrics_enabled || cell_ == nullptr) return;
    std::size_t i = 0;
    const std::size_t n = cell_->bounds.size();
    while (i < n && v >= cell_->bounds[i]) ++i;
    cell_->buckets[i] += 1;
    cell_->count += 1;
    cell_->sum += v;
    if (v < cell_->min) cell_->min = v;
    if (v > cell_->max) cell_->max = v;
  }
  std::uint64_t count() const { return cell_ != nullptr ? cell_->count : 0; }
  /// The live cell; the pointer is stable per interned name.
  const HistogramCell* cell() const { return cell_; }

 private:
  friend class Registry;
  explicit Histogram(HistogramCell* cell) : cell_(cell) {}
  HistogramCell* cell_ = nullptr;
};

/// Default latency bucket upper bounds, microseconds of sim time: 50 µs up
/// to 1 s in a coarse exponential ladder (matching the scale of circuit
/// round trips in the testbed).
inline constexpr std::int64_t kLatencyBucketsUs[] = {
    50,     100,    250,    500,     1'000,   2'500,   5'000,
    10'000, 25'000, 50'000, 100'000, 250'000, 500'000, 1'000'000};

/// One read-only copy of everything the registry knows, plus free-form
/// pre-formatted sections appended by higher layers (World::snapshot_stats
/// adds per-server, per-container and per-node blocks).
struct Snapshot {
  std::vector<CounterCell> counters;
  std::vector<GaugeCell> gauges;
  std::vector<HistogramCell> histograms;
  std::vector<std::string> sections;

  /// Human-readable text dump (the "stats dump" artifact).
  std::string to_string() const;

  /// Machine-readable dump: one JSON object with sorted counter/gauge/
  /// histogram maps plus the free-form sections as escaped strings. Integer
  /// values only and map order fixed by the registry's sorted interning, so
  /// identical seeded runs produce byte-identical output (CI diffs these).
  void to_json(std::ostream& os) const;
};

class Registry {
 public:
  /// Interning registration: same name returns a handle to the same cell.
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  /// `bounds` must be strictly ascending and non-empty; ignored (the
  /// original spec sticks) when `name` is already registered.
  Histogram histogram(std::string_view name,
                      std::span<const std::int64_t> bounds = kLatencyBucketsUs);

  /// Zeroes every value in place. Handles stay valid — registrations are
  /// never dropped — so scenarios can reset between runs for determinism.
  void reset();

  Snapshot snapshot() const;

 private:
  // std::less<> enables string_view lookups without temporary strings.
  std::map<std::string, std::unique_ptr<CounterCell>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<GaugeCell>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramCell>, std::less<>> histograms_;
};

/// Process-global registry (one world at a time).
Registry& registry();

}  // namespace bento::obs
