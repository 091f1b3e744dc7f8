// SLO engine suite (DESIGN.md §13): the spec grammar, nearest-rank
// percentiles, missing-metric and value-caused failures, and the path that
// feeds a trace's span forest into the engine.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/critpath.hpp"
#include "obs/forest.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"

namespace bo = bento::obs;

TEST(Slo, SpecGrammarParses) {
  bo::SloSpec s;
  ASSERT_TRUE(bo::parse_slo_spec("ttfb_us:p99<=250000", s));
  EXPECT_EQ(s.metric, "ttfb_us");
  EXPECT_EQ(s.agg, bo::SloSpec::Agg::Percentile);
  EXPECT_DOUBLE_EQ(s.pct, 99.0);
  EXPECT_EQ(s.op, bo::SloSpec::Op::Le);
  EXPECT_DOUBLE_EQ(s.target, 250000.0);
  EXPECT_EQ(s.name(), "ttfb_us:p99");

  ASSERT_TRUE(bo::parse_slo_spec("ttfb_us:p99.9<=400000", s));
  EXPECT_DOUBLE_EQ(s.pct, 99.9);
  EXPECT_EQ(s.name(), "ttfb_us:p99.9");

  ASSERT_TRUE(bo::parse_slo_spec("ttfb_us:count>=100000", s));
  EXPECT_EQ(s.agg, bo::SloSpec::Agg::Count);
  EXPECT_EQ(s.op, bo::SloSpec::Op::Ge);

  std::string err;
  // Every objective names a series aggregator: a bare metric has nothing
  // to aggregate.
  EXPECT_FALSE(bo::parse_slo_spec("queue_depth<=1.5", s, &err));
  EXPECT_NE(err.find("aggregator"), std::string::npos);
  EXPECT_FALSE(bo::parse_slo_spec("no_operator", s, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(bo::parse_slo_spec("x:p200<=1", s, &err));
  EXPECT_FALSE(bo::parse_slo_spec("x:bogus<=1", s, &err));
  EXPECT_FALSE(bo::parse_slo_spec("x<=", s, &err));
  EXPECT_FALSE(bo::parse_slo_spec("<=5", s, &err));
}

TEST(Slo, PercentileIsNearestRank) {
  std::vector<std::int64_t> v{10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  EXPECT_EQ(bo::slo_percentile(v, 50), 50);
  EXPECT_EQ(bo::slo_percentile(v, 99), 100);
  EXPECT_EQ(bo::slo_percentile(v, 10), 10);
  EXPECT_EQ(bo::slo_percentile({}, 99), 0);
}

TEST(Slo, PercentileEdgeCases) {
  // Empty series is defined as 0 (the engine separately fails the spec as
  // missing — the helper itself must not trap).
  EXPECT_EQ(bo::slo_percentile({}, 50), 0);
  // Single sample: every percentile is that sample.
  EXPECT_EQ(bo::slo_percentile({42}, 0.001), 42);
  EXPECT_EQ(bo::slo_percentile({42}, 50), 42);
  EXPECT_EQ(bo::slo_percentile({42}, 99.9), 42);
  EXPECT_EQ(bo::slo_percentile({42}, 100), 42);
  // Degenerate pct clamps to the extremes instead of indexing out of range.
  std::vector<std::int64_t> v{10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  EXPECT_EQ(bo::slo_percentile(v, 0), 10);
  EXPECT_EQ(bo::slo_percentile(v, 100), 100);
  // Fractional percentiles on small N: ceil(99.9% of 10) = 10th sample.
  EXPECT_EQ(bo::slo_percentile(v, 99.9), 100);
  // ...and on N=1000 the nearest rank is the 999th sample, not the max.
  std::vector<std::int64_t> big(1000);
  for (int i = 0; i < 1000; ++i) big[static_cast<std::size_t>(i)] = i + 1;
  EXPECT_EQ(bo::slo_percentile(big, 99.9), 999);
  EXPECT_EQ(bo::slo_percentile(big, 99), 990);
  // The input need not be sorted (the helper sorts a copy).
  EXPECT_EQ(bo::slo_percentile({30, 10, 20}, 50), 20);
}

TEST(Slo, SpecGrammarRejectsGarbage) {
  bo::SloSpec s;
  std::string err;
  // Percentiles live in (0, 100]: p0 is meaningless under nearest-rank,
  // p100 is the max.
  EXPECT_FALSE(bo::parse_slo_spec("x:p0<=1", s, &err));
  EXPECT_NE(err.find("percentile"), std::string::npos);
  ASSERT_TRUE(bo::parse_slo_spec("x:p100<=1", s));
  EXPECT_DOUBLE_EQ(s.pct, 100.0);
  EXPECT_EQ(s.name(), "x:p100");
  // Mangled operators and non-numeric pieces all fail, never crash.
  EXPECT_FALSE(bo::parse_slo_spec("", s, &err));
  EXPECT_FALSE(bo::parse_slo_spec("x:p99<>5", s, &err));
  EXPECT_FALSE(bo::parse_slo_spec("x:p99<=5trailing", s, &err));
  EXPECT_FALSE(bo::parse_slo_spec("x:pabc<=5", s, &err));
  EXPECT_FALSE(bo::parse_slo_spec("x:p<=5", s, &err));
  EXPECT_FALSE(bo::parse_slo_spec(":p99<=5", s, &err));
  EXPECT_FALSE(bo::parse_slo_spec("x:<=5", s, &err));
  EXPECT_FALSE(bo::parse_slo_spec("x:p99<=", s, &err));
  // Whitespace is not stripped: a padded metric is a different (and almost
  // certainly missing) metric, and a padded target is not a number.
  ASSERT_TRUE(bo::parse_slo_spec(" x :p99<=5", s));
  EXPECT_EQ(s.metric, " x ");
  EXPECT_FALSE(bo::parse_slo_spec("x:p99<= 5 ", s, &err));
}

TEST(Slo, MissingMetricFailsTheRun) {
  bo::SloInput input;
  input.add_sample("ttfb_us", 100);
  bo::SloSpec ok;
  ASSERT_TRUE(bo::parse_slo_spec("ttfb_us:max<=200", ok));
  bo::SloSpec missing;
  ASSERT_TRUE(bo::parse_slo_spec("ghost_us:p50<=1", missing));
  const bo::SloReport report = bo::evaluate_slos("t", {ok, missing}, input);
  EXPECT_FALSE(report.pass());
  ASSERT_EQ(report.results.size(), 2u);
  EXPECT_TRUE(report.results[0].ok);
  EXPECT_TRUE(report.results[1].missing);
  EXPECT_FALSE(report.results[1].ok);
}

TEST(Slo, CeilingBelowActualFailsTheRun) {
  bo::SloInput input;
  for (int i = 1; i <= 100; ++i) input.add_sample("ttfb_us", i * 10);
  std::vector<bo::SloSpec> specs(2);
  ASSERT_TRUE(bo::parse_slo_spec("ttfb_us:p99<=990", specs[0]));
  ASSERT_TRUE(bo::parse_slo_spec("ttfb_us:count>=100", specs[1]));
  const bo::SloReport pass = bo::evaluate_slos("s", specs, input);
  EXPECT_TRUE(pass.pass()) << pass.to_string();
  EXPECT_DOUBLE_EQ(pass.results[0].actual, 990);

  // The same data against a ceiling one below the actual: a failure caused
  // by the value alone, with the actual still reported.
  ASSERT_TRUE(bo::parse_slo_spec("ttfb_us:p99<=989", specs[0]));
  const bo::SloReport fail = bo::evaluate_slos("s", specs, input);
  EXPECT_FALSE(fail.pass());
  EXPECT_FALSE(fail.results[0].ok);
  EXPECT_FALSE(fail.results[0].missing);
  EXPECT_DOUBLE_EQ(fail.results[0].actual, 990);
  EXPECT_TRUE(fail.results[1].ok);
  EXPECT_NE(fail.to_string().find("[FAIL] ttfb_us:p99 <= 989  actual 990"),
            std::string::npos)
      << fail.to_string();
}

TEST(Slo, TraceEventsFeedTheEngine) {
  // Synthetic trace: 4 TTFB samples and their TTLB stamps.
  std::vector<bo::TraceEvent> events;
  for (std::int64_t us : {100, 200, 300, 400}) {
    events.push_back(bo::TraceEvent{.ts_us = us, .b = static_cast<std::uint64_t>(us),
                                    .a = 1, .kind = bo::Ev::StreamTtfb, .flags = 1});
    events.push_back(bo::TraceEvent{.ts_us = us, .b = static_cast<std::uint64_t>(us + 50),
                                    .a = 1, .kind = bo::Ev::StreamTtlb, .flags = 1});
  }
  std::vector<bo::SloSpec> specs(3);
  ASSERT_TRUE(bo::parse_slo_spec("ttfb_us:count>=4", specs[0]));
  ASSERT_TRUE(bo::parse_slo_spec("ttfb_us:p50<=200", specs[1]));
  ASSERT_TRUE(bo::parse_slo_spec("ttlb_us:max<=450", specs[2]));
  const bo::SloReport report = bo::evaluate_trace_slos(bo::build_forest(events), specs);
  EXPECT_TRUE(report.pass()) << report.to_string();
  EXPECT_DOUBLE_EQ(report.results[2].actual, 450);
}
