// The benchmark's arithmetic on synthetic inputs: which percentile a
// sample supports, latency summaries that count failures, ladder
// pass/fail (backlog growth included) and search, span self times, and
// the failed-operation share.
#include "stats.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> OneTo(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRank) {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_EQ(Percentile(v, 0.5), 3);
  EXPECT_EQ(Percentile(v, 0.0), 1);
  EXPECT_EQ(Percentile(v, 1.0), 5);
  EXPECT_EQ(Percentile(OneTo(1000), 0.99), 990);
  EXPECT_EQ(Percentile(OneTo(1000), 0.999), 999);
  EXPECT_EQ(Median({2.0, 1.0}), 1.0);  // lower median of an even sample
  EXPECT_TRUE(std::isnan(Percentile({}, 0.5)));
}

TEST(Percentile, TenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10U);
  EXPECT_TRUE(SupportsPercentile(1000, 0.99));
  EXPECT_FALSE(SupportsPercentile(999, 0.99));
  EXPECT_FALSE(SupportsPercentile(500, 0.99));
  EXPECT_TRUE(SupportsPercentile(10000, 0.999));
  EXPECT_FALSE(SupportsPercentile(9999, 0.999));
}

TEST(Summarize, FailuresMissEveryLimit) {
  const LatencySummary clean = Summarize(OneTo(1000), 0);
  EXPECT_EQ(clean.samples, 1000U);
  EXPECT_EQ(clean.p50, 500);
  EXPECT_EQ(clean.p99, 990);
  EXPECT_TRUE(clean.p99_supported);

  // Ten failures out of 1000 requests are exactly the 1% beyond p99...
  const LatencySummary ten = Summarize(OneTo(990), 10);
  EXPECT_EQ(ten.p99, 990);
  // ...and one more pushes p99 to infinity: it can meet no SLO.
  const LatencySummary eleven = Summarize(OneTo(989), 11);
  EXPECT_EQ(eleven.p99, kInf);
  EXPECT_EQ(eleven.samples, 1000U);

  const LatencySummary empty = Summarize({}, 0);
  EXPECT_FALSE(empty.p99_supported);
  EXPECT_EQ(empty.p99, kInf);
}

TEST(FailedShare, Ratio) {
  EXPECT_EQ(FailedShare(0, 0), 0.0);
  EXPECT_EQ(FailedShare(1000, 0), 0.0);
  EXPECT_DOUBLE_EQ(FailedShare(1000, 25), 0.025);
  EXPECT_EQ(FailedShare(4, 4), 1.0);
}

TEST(Ladder, GeometricAroundTheAnchor) {
  const std::vector<double> rates = Ladder(1000, 1.03, 2, 3);
  ASSERT_EQ(rates.size(), 6U);
  EXPECT_DOUBLE_EQ(rates[2], 1000);  // the anchor is step `down`
  EXPECT_DOUBLE_EQ(rates[3], 1030);
  EXPECT_NEAR(rates[0], 1000 / 1.03 / 1.03, 1e-9);
  EXPECT_NEAR(rates[5], 1000 * 1.03 * 1.03 * 1.03, 1e-9);
  for (std::size_t i = 1; i < rates.size(); ++i) {
    EXPECT_NEAR(rates[i] / rates[i - 1], 1.03, 1e-12);
  }
}

TEST(Ladder, BacklogGrowth) {
  // Steady: jitter well inside the allowance.
  EXPECT_FALSE(BacklogGrowing({3, 5, 2, 4, 6, 3, 4, 5}, 8.0));
  // Over capacity: the backlog climbs step after step.
  EXPECT_TRUE(BacklogGrowing({10, 40, 70, 100, 130, 160, 190, 220}, 8.0));
  // A stall in the middle that drains again is not growth.
  EXPECT_FALSE(BacklogGrowing({4, 4, 300, 120, 20, 5, 4, 6}, 8.0));
  // Growth within the allowance is queueing, not overload.
  EXPECT_FALSE(BacklogGrowing({2, 4, 6, 8, 10}, 8.0));
  EXPECT_FALSE(BacklogGrowing({7}, 0.0));
}

TEST(Ladder, StepPassFail) {
  const StepOutcome good{0.4, true, 0, {2, 3, 2, 3}};
  EXPECT_TRUE(StepPasses(good, 1.0, 10.0));

  StepOutcome slow = good;
  slow.p99_ms = 1.2;
  EXPECT_FALSE(StepPasses(slow, 1.0, 10.0));

  StepOutcome failed = good;
  failed.failed = 1;
  EXPECT_FALSE(StepPasses(failed, 1.0, 10.0));

  StepOutcome growing = good;
  growing.backlog = {2, 20, 40, 60};
  EXPECT_FALSE(StepPasses(growing, 1.0, 10.0));

  StepOutcome thin = good;
  thin.p99_supported = false;
  EXPECT_FALSE(StepPasses(thin, 1.0, 10.0));
}

TEST(Ladder, SearchFindsTheKnee) {
  for (std::size_t knee = 0; knee <= 20; ++knee) {
    std::vector<std::size_t> probed;
    const long best = LadderSearch(20, -1, [&](std::size_t step) {
      probed.push_back(step);
      return step < knee;
    });
    EXPECT_EQ(best, static_cast<long>(knee) - 1) << "knee " << knee;
    EXPECT_LE(probed.size(), 5U);  // ceil(log2(21))
  }
}

TEST(Ladder, SearchStartsAboveAKnownPass) {
  std::vector<std::size_t> probed;
  const long best = LadderSearch(30, 12, [&](std::size_t step) {
    probed.push_back(step);
    return step <= 17;
  });
  EXPECT_EQ(best, 17);
  for (std::size_t step : probed) {
    EXPECT_GT(step, 12U);
  }
  // Nothing above the known pass passes: the known step is the answer.
  EXPECT_EQ(LadderSearch(30, 12, [](std::size_t) { return false; }), 12);
}

Span MakeSpan(std::uint64_t id, std::uint64_t parent, std::uint64_t start,
              std::uint64_t end) {
  Span span;
  span.id = id;
  span.parent = parent;
  span.name = "s" + std::to_string(id);
  span.start_ns = start;
  span.end_ns = end;
  return span;
}

TEST(Spans, SelfTimeSubtractsChildren) {
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 100),   // root: children cover 10..50 and 60..80
      MakeSpan(2, 1, 10, 40),   // child with a grandchild
      MakeSpan(3, 1, 30, 50),   // overlaps span 2: union counted once
      MakeSpan(4, 1, 60, 80),
      MakeSpan(5, 2, 15, 25),   // grandchild: only span 2 loses it
  };
  const std::vector<std::uint64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100U - 40U - 20U);
  EXPECT_EQ(self[1], 30U - 10U);
  EXPECT_EQ(self[2], 20U);
  EXPECT_EQ(self[3], 20U);
  EXPECT_EQ(self[4], 10U);
}

TEST(Spans, ChildOutsideParentIsClipped) {
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 100, 200),
      MakeSpan(2, 1, 150, 400),  // outlives its parent (an async answer)
      MakeSpan(3, 1, 0, 50),     // wholly outside: covers nothing
      MakeSpan(4, 9, 0, 10),     // unknown parent: a root
  };
  const std::vector<std::uint64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 50U);
  EXPECT_EQ(self[1], 250U);
  EXPECT_EQ(self[2], 50U);
  EXPECT_EQ(self[3], 10U);
}

TEST(Spans, SelfSecondsGroupByName) {
  std::vector<Span> spans = {MakeSpan(1, 0, 0, 2'000'000'000),
                             MakeSpan(2, 1, 0, 500'000'000),
                             MakeSpan(3, 1, 500'000'000, 1'000'000'000)};
  spans[1].name = "leaf";
  spans[2].name = "leaf";
  const auto by_name = SelfSecondsByName(spans);
  ASSERT_EQ(by_name.at("leaf").size(), 2U);
  EXPECT_DOUBLE_EQ(by_name.at("leaf")[0], 0.5);
  EXPECT_DOUBLE_EQ(by_name.at("s1")[0], 1.0);
}

}  // namespace
}  // namespace perfbench
