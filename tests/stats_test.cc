#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "stats/empirical_distribution.h"
#include "stats/reservoir.h"
#include "stats/running_stat.h"
#include "stats/sliding_window.h"

namespace pard {
namespace {

// ---- RunningStat ------------------------------------------------------------

TEST(RunningStat, MeanAndVariance) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(v);
  }
  EXPECT_DOUBLE_EQ(s.Mean(), 5.0);
  EXPECT_NEAR(s.Variance(), 32.0 / 7.0, 1e-12);  // Sample variance.
  EXPECT_DOUBLE_EQ(s.Min(), 2.0);
  EXPECT_DOUBLE_EQ(s.Max(), 9.0);
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.Count(), 0);
  EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.Variance(), 0.0);
}

TEST(RunningStat, CvMatchesDefinition) {
  RunningStat s;
  for (double v : {1.0, 2.0, 3.0}) {
    s.Add(v);
  }
  EXPECT_NEAR(s.Cv(), s.Stddev() / s.Mean(), 1e-12);
}

TEST(RunningStat, ResetClears) {
  RunningStat s;
  s.Add(5.0);
  s.Reset();
  EXPECT_EQ(s.Count(), 0);
}

// ---- SlidingWindow ------------------------------------------------------------

TEST(SlidingWindow, MeanEvictsOldEntries) {
  SlidingWindow w(SecToUs(5));
  w.Add(SecToUs(0), 10.0);
  w.Add(SecToUs(4), 20.0);
  EXPECT_DOUBLE_EQ(w.Mean(SecToUs(4)), 15.0);
  // At t=6 the first entry (age 6s) is out of the 5s window.
  EXPECT_DOUBLE_EQ(w.Mean(SecToUs(6)), 20.0);
}

TEST(SlidingWindow, EmptyReturnsFallback) {
  SlidingWindow w(SecToUs(5));
  EXPECT_DOUBLE_EQ(w.Mean(SecToUs(1), 42.0), 42.0);
  EXPECT_DOUBLE_EQ(w.LinearWeightedMean(SecToUs(1), 7.0), 7.0);
  EXPECT_DOUBLE_EQ(w.Max(SecToUs(1), -3.0), -3.0);
}

TEST(SlidingWindow, LinearWeightingFavorsRecent) {
  SlidingWindow w(SecToUs(5));
  w.Add(SecToUs(0), 0.0);    // Age 4s at query -> weight 0.2.
  w.Add(SecToUs(4), 10.0);   // Age 0s -> weight 1.0.
  const double weighted = w.LinearWeightedMean(SecToUs(4));
  // (0.2*0 + 1.0*10) / 1.2 = 8.333...
  EXPECT_NEAR(weighted, 10.0 / 1.2, 1e-9);
  EXPECT_GT(weighted, w.Mean(SecToUs(4)));
}

TEST(SlidingWindow, LinearWeightEqualsUnweightedForSimultaneous) {
  SlidingWindow w(SecToUs(5));
  w.Add(SecToUs(2), 3.0);
  w.Add(SecToUs(2), 5.0);
  EXPECT_NEAR(w.LinearWeightedMean(SecToUs(2)), 4.0, 1e-9);
}

TEST(SlidingWindow, MaxTracksWindow) {
  SlidingWindow w(SecToUs(5));
  w.Add(SecToUs(0), 100.0);
  w.Add(SecToUs(4), 1.0);
  EXPECT_DOUBLE_EQ(w.Max(SecToUs(4)), 100.0);
  EXPECT_DOUBLE_EQ(w.Max(SecToUs(7)), 1.0);  // The 100 aged out.
}

TEST(SlidingWindow, RatePerSecSteadyState) {
  SlidingWindow w(SecToUs(5));
  // 10 events per second for 10 seconds.
  for (int i = 0; i < 100; ++i) {
    w.Add(static_cast<SimTime>(i) * kUsPerSec / 10, 1.0);
  }
  EXPECT_NEAR(w.RatePerSec(SecToUs(10)), 10.0, 1.0);
}

TEST(SlidingWindow, RejectsOutOfOrderTimestamps) {
  SlidingWindow w(SecToUs(5));
  w.Add(SecToUs(2), 1.0);
  EXPECT_THROW(w.Add(SecToUs(1), 1.0), CheckError);
}

TEST(SlidingWindow, RejectsNonPositiveLength) {
  EXPECT_THROW(SlidingWindow(0), CheckError);
}

// ---- RecentReservoir -----------------------------------------------------------

TEST(RecentReservoir, KeepsMostRecentWhenFull) {
  RecentReservoir r(4);
  for (int i = 0; i < 10; ++i) {
    r.Add(static_cast<double>(i));
  }
  EXPECT_EQ(r.Size(), 4u);
  double sum = 0.0;
  for (double v : r.values()) {
    sum += v;
  }
  EXPECT_DOUBLE_EQ(sum, 6.0 + 7.0 + 8.0 + 9.0);
}

TEST(RecentReservoir, SampleDrawsFromContents) {
  RecentReservoir r(8);
  r.Add(5.0);
  Rng rng(1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(r.Sample(rng), 5.0);
  }
}

TEST(RecentReservoir, SampleOnEmptyThrows) {
  RecentReservoir r(4);
  Rng rng(1);
  EXPECT_THROW(r.Sample(rng), CheckError);
}

TEST(RecentReservoir, ClearResets) {
  RecentReservoir r(4);
  r.Add(1.0);
  r.Clear();
  EXPECT_TRUE(r.Empty());
}

// The sorted mirror must equal a fresh sort of the ring after any sequence
// of adds, whatever the number of adds between reads: none, one, fewer than
// the capacity (merge and evict), exactly the capacity (every slot replaced),
// one more than the capacity and over three times the capacity (the
// full-sort fallback). Every other batch draws from 3 distinct values, so
// the multiset difference must remove the right count of duplicates; a
// Clear() lands mid-sequence.
TEST(RecentReservoir, SortedMatchesSortOfValues) {
  auto expect_sorted = [](RecentReservoir& r, const std::string& where) {
    std::vector<double> want = r.values();
    std::sort(want.begin(), want.end());
    ASSERT_EQ(r.Sorted(), want) << where;
  };
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (std::size_t capacity : {1u, 7u, 64u}) {
      RecentReservoir r(capacity);
      Rng rng(seed);
      const std::int64_t cap = static_cast<std::int64_t>(capacity);
      const std::int64_t batches[] = {0, 1, cap / 2 + 1, cap, cap + 1, 3 * cap + 1};
      const auto last = static_cast<std::int64_t>(std::size(batches)) - 1;
      for (int step = 0; step < 60; ++step) {
        const std::int64_t adds = batches[static_cast<std::size_t>(rng.UniformInt(0, last))];
        const std::int64_t hi = step % 2 == 0 ? 1'000'000 : 2;
        for (std::int64_t i = 0; i < adds; ++i) {
          r.Add(static_cast<double>(rng.UniformInt(0, hi)));
        }
        if (step == 30) {
          r.Clear();
          expect_sorted(r, "after clear");
        }
        const std::string where = "seed " + std::to_string(seed) + " capacity " +
                                  std::to_string(capacity) + " step " + std::to_string(step) +
                                  " adds " + std::to_string(adds);
        expect_sorted(r, where);
        expect_sorted(r, where + " (re-read)");
      }
    }
  }
}

// ---- EmpiricalDistribution ------------------------------------------------------

TEST(EmpiricalDistribution, QuantileEndpoints) {
  EmpiricalDistribution d({5.0, 1.0, 3.0});
  EXPECT_DOUBLE_EQ(d.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(d.Quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(d.Quantile(0.5), 3.0);
}

TEST(EmpiricalDistribution, QuantileInterpolates) {
  EmpiricalDistribution d({0.0, 10.0});
  EXPECT_DOUBLE_EQ(d.Quantile(0.25), 2.5);
  EXPECT_DOUBLE_EQ(d.Quantile(0.75), 7.5);
}

TEST(EmpiricalDistribution, QuantileClampsArgument) {
  EmpiricalDistribution d({1.0, 2.0});
  EXPECT_DOUBLE_EQ(d.Quantile(-1.0), 1.0);
  EXPECT_DOUBLE_EQ(d.Quantile(2.0), 2.0);
}

TEST(EmpiricalDistribution, EmptyFallback) {
  EmpiricalDistribution d;
  EXPECT_TRUE(d.Empty());
  EXPECT_DOUBLE_EQ(d.Quantile(0.5, 99.0), 99.0);
  EXPECT_DOUBLE_EQ(d.Cdf(0.0), 0.0);
}

TEST(EmpiricalDistribution, CdfMatchesCounts) {
  EmpiricalDistribution d({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(d.Cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(d.Cdf(2.0), 0.5);
  EXPECT_DOUBLE_EQ(d.Cdf(10.0), 1.0);
}

TEST(EmpiricalDistribution, AddInvalidatesSortOrder) {
  EmpiricalDistribution d({5.0});
  d.Add(1.0);
  EXPECT_DOUBLE_EQ(d.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(d.Min(), 1.0);
  EXPECT_DOUBLE_EQ(d.Max(), 5.0);
}

TEST(EmpiricalDistribution, MeanIsArithmetic) {
  EmpiricalDistribution d({1.0, 2.0, 6.0});
  EXPECT_DOUBLE_EQ(d.Mean(), 3.0);
}

// Property: quantile is monotone in q.
TEST(EmpiricalDistribution, QuantileMonotoneProperty) {
  Rng rng(77);
  std::vector<double> samples;
  for (int i = 0; i < 500; ++i) {
    samples.push_back(rng.Uniform(0.0, 100.0));
  }
  EmpiricalDistribution d(std::move(samples));
  double prev = d.Quantile(0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double cur = d.Quantile(q);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

}  // namespace
}  // namespace pard
