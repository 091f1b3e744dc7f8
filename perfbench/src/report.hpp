// Metric records and the order statistics the benchmark reports.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

using Metrics = std::vector<Metric>;

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty set.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Fixed-memory uniform sample of a stream (Vitter's algorithm R), so the
/// timed loop's own footprint does not grow with the number of ops and
/// peak_rss_mb describes the program, not the benchmark's bookkeeping.
class Reservoir {
 public:
  Reservoir(std::size_t capacity, std::uint64_t seed) : capacity_(capacity), state_(seed | 1) {
    samples_.reserve(capacity);
  }

  void add(double v) {
    if (samples_.size() < capacity_) {
      samples_.push_back(v);
    } else if (const std::uint64_t j = next() % (seen_ + 1); j < capacity_) {
      samples_[j] = v;
    }
    ++seen_;
  }
  const std::vector<double>& samples() const { return samples_; }

 private:
  std::uint64_t next() {  // xorshift64
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }

  std::size_t capacity_;
  std::vector<double> samples_;
  std::uint64_t state_;
  std::uint64_t seen_ = 0;
};

}  // namespace perfbench
