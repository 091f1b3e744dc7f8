// Paired A/B overhead measurement for the run_benchmarks.sh timing gates.
//
// Comparing two separately timed benchmarks turns host drift (frequency
// scaling, a noisy neighbour landing on one of the two runs) into fake
// overhead well past a few percent. Here the two variants alternate batch by
// batch inside one timed loop, the order flipping every iteration, and the
// statistic is the ratio of per-batch medians: a scheduler preemption spikes
// one batch by milliseconds, which would dominate a mean but leaves a median
// untouched.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <vector>

namespace bento::bench {

/// Runs `base()` and `variant()` once each per benchmark iteration, each
/// call one batch, and returns how much slower the variant's median batch
/// is than the base's, in percent (negative when faster).
template <class Base, class Variant>
double paired_overhead_pct(benchmark::State& state, Base&& base, Variant&& variant) {
  using clock = std::chrono::steady_clock;
  std::vector<double> base_ns;
  std::vector<double> variant_ns;
  bool base_first = true;
  for (auto _ : state) {
    const auto t0 = clock::now();
    if (base_first) base(); else variant();
    const auto t1 = clock::now();
    if (base_first) variant(); else base();
    const auto t2 = clock::now();
    const double first = std::chrono::duration<double, std::nano>(t1 - t0).count();
    const double second = std::chrono::duration<double, std::nano>(t2 - t1).count();
    base_ns.push_back(base_first ? first : second);
    variant_ns.push_back(base_first ? second : first);
    base_first = !base_first;
  }
  auto median = [](std::vector<double>& v) {
    if (v.empty()) return 0.0;
    const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
    std::nth_element(v.begin(), mid, v.end());
    return *mid;
  };
  const double m_base = median(base_ns);
  const double m_variant = median(variant_ns);
  return m_base > 0 ? (m_variant - m_base) / m_base * 100.0 : 0.0;
}

}  // namespace bento::bench
