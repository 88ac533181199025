#include "perfbench/src/stats.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(Percentile(OneTo(100), 50.0), 50.0);
  EXPECT_EQ(Percentile(OneTo(100), 99.0), 99.0);
  EXPECT_EQ(Percentile(OneTo(10), 95.0), 10.0);  // rank ceil(9.5) = 10
  EXPECT_EQ(Percentile(OneTo(3), 50.0), 2.0);
  EXPECT_EQ(Percentile({7.0}, 99.0), 7.0);
  EXPECT_EQ(Percentile({}, 50.0), 0.0);
}

TEST(Percentile, TenSamplesBeyondRule) {
  // p99 of 1000 samples has rank 990 and ten samples beyond it.
  EXPECT_EQ(SamplesBeyond(1000, 99.0), 10);
  EXPECT_EQ(SupportedPercentile(OneTo(1000), 99.0).value(), 990.0);
  // One sample short: 999 samples put rank 990 under nine samples.
  EXPECT_EQ(SamplesBeyond(999, 99.0), 9);
  EXPECT_FALSE(SupportedPercentile(OneTo(999), 99.0).has_value());
}

TEST(Percentile, TailFallsBackToTheHighestSupported) {
  const Tail p99 = TailPercentile(OneTo(1000));
  EXPECT_EQ(p99.q, 99.0);
  EXPECT_EQ(p99.value, 990.0);
  const Tail p95 = TailPercentile(OneTo(400));  // p99 has 4 beyond, p95 20
  EXPECT_EQ(p95.q, 95.0);
  EXPECT_EQ(p95.value, 380.0);
  const Tail p50 = TailPercentile(OneTo(30));
  EXPECT_EQ(p50.q, 50.0);
  EXPECT_EQ(TailPercentile(OneTo(5)).q, 0.0);
}

// Synthetic M/M/1-like curve: latency grows as capacity is approached and
// the backlog never drains past it.
LadderStep SyntheticStep(double rate, double capacity) {
  LadderStep step;
  step.tail_q = 99.0;
  step.tail_ms = rate < capacity ? 5.0 / (1.0 - rate / capacity) : 1e6;
  step.drain_ms = rate < capacity ? step.tail_ms : 1e6;
  return step;
}

TEST(RateLadder, FindsTheHighestRateWithinTheLimit) {
  const std::vector<double> ladder = {100, 200, 300, 400, 500};
  std::vector<double> visited;
  const LadderResult result =
      SearchRateLadder(ladder, 20.0, [&](double rate) {
        visited.push_back(rate);
        return SyntheticStep(rate, 400.0);
      });
  // 300/s: 5 / (1 - 0.75) = 20 ms, exactly at the limit; 400/s saturates.
  EXPECT_EQ(result.max_rate, 300.0);
  EXPECT_EQ(visited, (std::vector<double>{100, 200, 300, 400}));
  ASSERT_EQ(result.steps.size(), 4u);
  EXPECT_TRUE(result.steps[2].passed);
  EXPECT_FALSE(result.steps[3].passed);
}

TEST(RateLadder, FirstStepFailingGivesZero) {
  const LadderResult result = SearchRateLadder(
      {100, 200}, 1.0, [](double rate) { return SyntheticStep(rate, 50.0); });
  EXPECT_EQ(result.max_rate, 0.0);
  EXPECT_EQ(result.steps.size(), 1u);
}

TEST(RateLadder, BacklogOrFailuresFailAStep) {
  LadderStep growing = SyntheticStep(100, 400);
  growing.drain_ms = 50.0;
  EXPECT_FALSE(StepPasses(growing, 20.0));
  LadderStep shed = SyntheticStep(100, 400);
  shed.failed = 1;
  EXPECT_FALSE(StepPasses(shed, 20.0));
  LadderStep unsupported = SyntheticStep(100, 400);
  unsupported.tail_q = 0.0;
  EXPECT_FALSE(StepPasses(unsupported, 20.0));
  EXPECT_TRUE(StepPasses(SyntheticStep(100, 400), 20.0));
}

TEST(SelfTimes, SubtractsTheUnionOfDirectChildren) {
  std::vector<Span> spans = {
      {"root", 0.0, 10.0, -1, -1},
      {"a", 1.0, 4.0, 0, -1},
      {"b", 3.0, 6.0, 0, -1},   // overlaps a: [1, 6) counted once
      {"c", 8.0, 12.0, 0, -1},  // sticks out of root: clipped to [8, 10)
      {"a.child", 1.5, 2.5, 1, -1},
  };
  const std::map<std::string, double> self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self.at("root"), 10.0 - 5.0 - 2.0);
  EXPECT_DOUBLE_EQ(self.at("a"), 3.0 - 1.0);
  EXPECT_DOUBLE_EQ(self.at("b"), 3.0);
  EXPECT_DOUBLE_EQ(self.at("c"), 4.0);
  EXPECT_DOUBLE_EQ(self.at("a.child"), 1.0);
}

TEST(SelfTimes, SumsSpansOfTheSameName) {
  std::vector<Span> spans = {
      {"root", 0.0, 4.0, -1, -1},
      {"req", 0.0, 1.0, 0, 1},
      {"req", 2.0, 3.0, 0, 2},
  };
  const std::map<std::string, double> self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self.at("req"), 2.0);
  EXPECT_DOUBLE_EQ(self.at("root"), 2.0);
}

TEST(SpanLog, NestsAndPausesRecording) {
  SpanLog log(true);
  {
    SpanLog::Scope outer(&log, "outer");
    SpanLog::Scope inner(&log, "inner");
  }
  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.spans()[1].parent, 0);
  EXPECT_LE(log.spans()[1].end, log.spans()[0].end);
  log.set_enabled(false);
  { SpanLog::Scope ignored(&log, "ignored"); }
  EXPECT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.Current(), -1);
}

}  // namespace
}  // namespace perfbench
