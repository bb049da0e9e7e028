// Unit tests for streaming and batch statistics.
#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace hpcem {
namespace {

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyThrows) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_THROW(s.mean(), StateError);
}

TEST(RunningStats, SingleSampleVarianceZero) {
  RunningStats s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(21);
  RunningStats whole, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(10.0, 3.0);
    whole.add(x);
    (i < 400 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.merge(b);  // no-op
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);  // copies
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(CompensatedSum, NoDriftOnAdversarialLongStream) {
  // A sliding window kept as one running sum: one add and one subtract
  // per sample.  A naive double sum silently absorbs the small samples
  // that share the window with a large transient (adding 1.0 to 1e17 is a
  // no-op in double), so after the transient leaves the window the sum is
  // permanently wrong.  The compensated sum must come back exactly.
  constexpr std::size_t kWindow = 16;
  CompensatedSum sum;
  std::deque<double> window;
  const auto push = [&](double x) {
    window.push_back(x);
    sum.add(x);
    if (window.size() > kWindow) {
      sum.subtract(window.front());
      window.pop_front();
    }
  };
  for (int burst = 0; burst < 50; ++burst) {
    push(1.0e17);
    for (int i = 0; i < 999; ++i) {
      push(1.0);
      if (i > 32) {
        // Transient long gone; the window is sixteen 1.0 samples.
        ASSERT_EQ(sum.value(), 16.0)
            << "drift after burst " << burst << " sample " << i;
      }
    }
  }
}

TEST(CompensatedSum, ExactUnderRepeatedCancellation) {
  // Second adversarial shape: a periodic stream +1e16, -1e16, 0.5, 0.5
  // through a four-sample window, so every full window sums to exactly
  // 1.0.  Adding 0.5 into a sum holding 1e16 rounds it away (ulp(1e16) =
  // 2), so an uncompensated running sum drifts by 0.5 per cycle; the
  // compensated sum captures the rounding error exactly.
  const double pattern[4] = {1.0e16, -1.0e16, 0.5, 0.5};
  CompensatedSum sum;
  for (int i = 0; i < 4000; ++i) {
    sum.add(pattern[i % 4]);
    if (i >= 4) sum.subtract(pattern[(i - 4) % 4]);
    if (i >= 3) {
      ASSERT_EQ(sum.value(), 1.0) << "at sample " << i;
    }
  }
  sum.reset();
  EXPECT_EQ(sum.value(), 0.0);
}

TEST(Percentile, InterpolatesBetweenValues) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile_sorted(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(xs, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(percentile_sorted(xs, 1.0 / 3.0), 2.0);
}

TEST(Percentile, SingleElement) {
  const std::vector<double> xs = {7.0};
  EXPECT_DOUBLE_EQ(percentile_sorted(xs, 0.3), 7.0);
}

TEST(Percentile, InvalidInputsThrow) {
  const std::vector<double> xs = {1.0};
  EXPECT_THROW(percentile_sorted({}, 0.5), InvalidArgument);
  EXPECT_THROW(percentile_sorted(xs, -0.1), InvalidArgument);
  EXPECT_THROW(percentile_sorted(xs, 1.1), InvalidArgument);
}

TEST(Summarize, FullSummary) {
  std::vector<double> xs;
  for (int i = 1; i <= 101; ++i) xs.push_back(static_cast<double>(i));
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 101u);
  EXPECT_DOUBLE_EQ(s.mean, 51.0);
  EXPECT_DOUBLE_EQ(s.median, 51.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 101.0);
  EXPECT_DOUBLE_EQ(s.p25, 26.0);
  EXPECT_DOUBLE_EQ(s.p75, 76.0);
}

TEST(Summarize, EmptyGivesZeroCount) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
}

TEST(Ewma, ConvergesToConstant) {
  Ewma e(0.2);
  EXPECT_FALSE(e.primed());
  for (int i = 0; i < 100; ++i) e.add(10.0);
  EXPECT_TRUE(e.primed());
  EXPECT_NEAR(e.value(), 10.0, 1e-9);
}

TEST(Ewma, FirstSamplePrimes) {
  Ewma e(0.5);
  EXPECT_DOUBLE_EQ(e.add(4.0), 4.0);
  EXPECT_DOUBLE_EQ(e.add(8.0), 6.0);
}

TEST(Ewma, InvalidAlphaThrows) {
  EXPECT_THROW(Ewma(0.0), InvalidArgument);
  EXPECT_THROW(Ewma(1.5), InvalidArgument);
}

}  // namespace
}  // namespace hpcem
