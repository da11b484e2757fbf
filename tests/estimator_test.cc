#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/irwin_hall.h"
#include "core/latency_estimator.h"
#include "exec/thread_pool.h"
#include "pipeline/apps.h"
#include "runtime/state_board.h"

namespace pard {
namespace {

// ---- Irwin–Hall ---------------------------------------------------------------

TEST(IrwinHall, CdfOfUniform) {
  // n=1 is U[0,1].
  EXPECT_NEAR(IrwinHallCdf(1, 0.3), 0.3, 1e-12);
  EXPECT_NEAR(IrwinHallCdf(1, 1.0), 1.0, 1e-12);
  EXPECT_NEAR(IrwinHallCdf(1, -1.0), 0.0, 1e-12);
}

TEST(IrwinHall, CdfSymmetryAroundMean) {
  // The Irwin-Hall distribution is symmetric about n/2.
  for (int n : {2, 3, 4, 5}) {
    for (double x = 0.1; x < n / 2.0; x += 0.2) {
      EXPECT_NEAR(IrwinHallCdf(n, x), 1.0 - IrwinHallCdf(n, n - x), 1e-9) << n << " " << x;
    }
  }
}

TEST(IrwinHall, QuantileInvertsCdf) {
  for (int n : {1, 2, 3, 4, 6}) {
    for (double q : {0.05, 0.1, 0.25, 0.5, 0.9}) {
      const double x = IrwinHallQuantile(n, q);
      EXPECT_NEAR(IrwinHallCdf(n, x), q, 1e-6) << n << " " << q;
    }
  }
}

// The paper's worked example (§4.2): lambda = 0.1 in a 4-module pipeline with
// equal durations d gives w_1 = 0.31 * sum d (4 modules), w_2 = 0.28 (3),
// w_3 = 0.22 (2), w_4 = 0.10 (1), expressed as fractions of the respective
// sums.
TEST(IrwinHall, PaperWorkedExample) {
  EXPECT_NEAR(IrwinHallQuantile(4, 0.1) / 4.0, 0.31, 0.005);
  EXPECT_NEAR(IrwinHallQuantile(3, 0.1) / 3.0, 0.28, 0.005);
  EXPECT_NEAR(IrwinHallQuantile(2, 0.1) / 2.0, 0.22, 0.005);
  EXPECT_NEAR(IrwinHallQuantile(1, 0.1) / 1.0, 0.10, 0.005);
}

// ---- LatencyEstimator -----------------------------------------------------------

// Board with uniform batch duration d and no samples (uniform fallback).
StateBoard UniformBoard(int n, Duration d, double q_delay = 0.0) {
  StateBoard board(n);
  for (int i = 0; i < n; ++i) {
    ModuleState s;
    s.module_id = i;
    s.batch_duration = d;
    s.avg_queue_delay = q_delay;
    s.batch_size = 4;
    board.Publish(std::move(s));
  }
  return board;
}

EstimatorOptions HighResOptions(double lambda = 0.1) {
  EstimatorOptions o;
  o.lambda = lambda;
  o.mc_samples = 20000;  // Tight Monte-Carlo for numeric assertions.
  return o;
}

TEST(LatencyEstimator, MatchesIrwinHallOnUniformFallback) {
  const PipelineSpec lv = MakeLiveVideo();  // 5-module chain.
  const Duration d = 10 * kUsPerMs;
  StateBoard board = UniformBoard(5, d);
  LatencyEstimator est(&lv, &board, HighResOptions(), Rng(1));
  // Path of 4 downstream modules from module 0.
  const Duration w = est.AggregateWaitQuantile({1, 2, 3, 4}, 0.1);
  const double expected = IrwinHallQuantile(4, 0.1) * static_cast<double>(d);
  EXPECT_NEAR(static_cast<double>(w), expected, expected * 0.06);
}

TEST(LatencyEstimator, PaperQuantileTableAcrossPositions) {
  const PipelineSpec lv = MakeLiveVideo();
  const Duration d = 10 * kUsPerMs;
  StateBoard board = UniformBoard(5, d);
  LatencyEstimator est(&lv, &board, HighResOptions(), Rng(2));
  const struct {
    std::vector<int> path;
    double fraction;  // Of sum d over the path.
  } cases[] = {
      {{1, 2, 3, 4}, 0.31},
      {{2, 3, 4}, 0.28},
      {{3, 4}, 0.22},
      {{4}, 0.10},
  };
  for (const auto& c : cases) {
    const Duration w = est.AggregateWaitQuantile(c.path, 0.1);
    const double sum_d = static_cast<double>(d) * static_cast<double>(c.path.size());
    EXPECT_NEAR(static_cast<double>(w) / sum_d, c.fraction, 0.02);
  }
}

TEST(LatencyEstimator, LambdaExtremes) {
  const PipelineSpec lv = MakeLiveVideo();
  const Duration d = 10 * kUsPerMs;
  StateBoard board = UniformBoard(5, d);
  LatencyEstimator est(&lv, &board, HighResOptions(), Rng(3));
  const std::vector<int> path = {1, 2, 3, 4};
  // lambda = 0 -> near 0; lambda = 1 -> near sum d.
  EXPECT_LT(est.AggregateWaitQuantile(path, 0.0), 4 * d / 10);
  EXPECT_GT(est.AggregateWaitQuantile(path, 1.0), 4 * d * 9 / 10);
}

TEST(LatencyEstimator, WaitQuantileMonotoneInLambda) {
  const PipelineSpec lv = MakeLiveVideo();
  StateBoard board = UniformBoard(5, 8 * kUsPerMs);
  LatencyEstimator est(&lv, &board, HighResOptions(), Rng(4));
  Duration prev = 0;
  for (double lambda = 0.0; lambda <= 1.0; lambda += 0.1) {
    const Duration w = est.AggregateWaitQuantile({1, 2, 3, 4}, lambda);
    EXPECT_GE(w, prev);
    prev = w;
  }
}

TEST(LatencyEstimator, UsesObservedSamplesWhenAvailable) {
  const PipelineSpec lv = MakeLiveVideo();
  StateBoard board = UniformBoard(5, 10 * kUsPerMs);
  // Module 4's waits are observed to be exactly 1 ms.
  ModuleState s;
  s.module_id = 4;
  s.batch_duration = 10 * kUsPerMs;
  s.wait_samples.assign(100, 1000.0);
  board.Publish(std::move(s));
  LatencyEstimator est(&lv, &board, HighResOptions(), Rng(5));
  const Duration w = est.AggregateWaitQuantile({4}, 0.5);
  EXPECT_EQ(w, 1000);
}

TEST(LatencyEstimator, SubsequentSumsQueueExecAndWait) {
  const PipelineSpec lv = MakeLiveVideo();
  const Duration d = 10 * kUsPerMs;
  const double q = 3.0 * kUsPerMs;
  StateBoard board = UniformBoard(5, d, q);
  LatencyEstimator est(&lv, &board, HighResOptions(), Rng(6));
  const Duration sub = est.EstimateSubsequent(0);
  // 4 modules downstream: 4q + 4d + w(4 uniforms, lambda=.1).
  const double expected = 4 * q + 4.0 * static_cast<double>(d) +
                          IrwinHallQuantile(4, 0.1) * static_cast<double>(d);
  EXPECT_NEAR(static_cast<double>(sub), expected, expected * 0.05);
  // Sink has nothing downstream.
  EXPECT_EQ(est.EstimateSubsequent(4), 0);
}

TEST(LatencyEstimator, AblationKnobsChangeComponents) {
  const PipelineSpec lv = MakeLiveVideo();
  const Duration d = 10 * kUsPerMs;
  StateBoard board = UniformBoard(5, d, 3.0 * kUsPerMs);

  EstimatorOptions sf = HighResOptions();
  sf.include_queue = false;
  sf.include_wait = false;
  LatencyEstimator est_sf(&lv, &board, sf, Rng(7));
  EXPECT_EQ(est_sf.EstimateSubsequent(0), 4 * d);  // sum d only (PARD-sf).

  EstimatorOptions lower = HighResOptions();
  lower.wait_mode = EstimatorOptions::WaitMode::kLower;
  LatencyEstimator est_lower(&lv, &board, lower, Rng(8));
  EstimatorOptions upper = HighResOptions();
  upper.wait_mode = EstimatorOptions::WaitMode::kUpper;
  LatencyEstimator est_upper(&lv, &board, upper, Rng(9));
  // lower < sweet spot < upper, and upper - lower = sum d exactly.
  LatencyEstimator est(&lv, &board, HighResOptions(), Rng(10));
  EXPECT_LT(est_lower.EstimateSubsequent(0), est.EstimateSubsequent(0));
  EXPECT_LT(est.EstimateSubsequent(0), est_upper.EstimateSubsequent(0));
  EXPECT_EQ(est_upper.EstimateSubsequent(0) - est_lower.EstimateSubsequent(0), 4 * d);
}

TEST(LatencyEstimator, DagTakesMaxOverPaths) {
  const PipelineSpec da = MakeDagLiveVideo();
  StateBoard board(5);
  // pose branch (module 1) is slow; face branch (module 2) fast.
  for (int i = 0; i < 5; ++i) {
    ModuleState s;
    s.module_id = i;
    s.batch_duration = (i == 1) ? 50 * kUsPerMs : 5 * kUsPerMs;
    board.Publish(std::move(s));
  }
  EstimatorOptions options = HighResOptions();
  options.include_wait = false;  // Deterministic comparison.
  LatencyEstimator est(&da, &board, options, Rng(11));
  // From module 0: slow path d = 50+5+5 = 60ms; fast path 5+5+5 = 15ms.
  EXPECT_EQ(est.EstimateSubsequent(0), 60 * kUsPerMs);
}

TEST(LatencyEstimator, WaitQuantileMemoizedWithinEpoch) {
  // Warm-epoch contract (ISSUE 3): repeat AggregateWaitQuantile calls between
  // board publishes must be cache reads — same value, and no Monte-Carlo RNG
  // draws. The second estimator runs the same sequence minus the repeat
  // calls; if the repeats drew from the RNG, the later distributions would
  // diverge.
  const PipelineSpec lv = MakeLiveVideo();
  StateBoard board = UniformBoard(5, 10 * kUsPerMs);
  LatencyEstimator with_repeats(&lv, &board, HighResOptions(), Rng(21));
  LatencyEstimator without_repeats(&lv, &board, HighResOptions(), Rng(21));

  const Duration first = with_repeats.AggregateWaitQuantile({1, 2, 3, 4}, 0.1);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(with_repeats.AggregateWaitQuantile({1, 2, 3, 4}, 0.1), first);
  }
  EXPECT_EQ(without_repeats.AggregateWaitQuantile({1, 2, 3, 4}, 0.1), first);

  // Both estimators' RNGs must now be in the same state.
  const EmpiricalDistribution a = with_repeats.AggregateWaitDistribution({2, 3, 4});
  const EmpiricalDistribution b = without_repeats.AggregateWaitDistribution({2, 3, 4});
  for (double q : {0.0, 0.1, 0.5, 0.9, 1.0}) {
    EXPECT_EQ(a.Quantile(q), b.Quantile(q)) << q;
  }
  EXPECT_EQ(a.Mean(), b.Mean());
}

TEST(LatencyEstimator, WaitQuantileRecomputesOnEpochAdvance) {
  const PipelineSpec lv = MakeLiveVideo();
  StateBoard board = UniformBoard(5, 10 * kUsPerMs);
  EstimatorOptions options = HighResOptions();
  LatencyEstimator est(&lv, &board, options, Rng(22));
  const Duration before = est.AggregateWaitQuantile({4}, 0.5);
  // Pin module 4's waits to exactly 2 ms and publish: the memo must refresh.
  ModuleState s;
  s.module_id = 4;
  s.batch_duration = 10 * kUsPerMs;
  s.wait_samples.assign(100, 2000.0);
  board.Publish(std::move(s));
  const Duration after = est.AggregateWaitQuantile({4}, 0.5);
  EXPECT_EQ(after, 2000);
  EXPECT_NE(after, before);
}

TEST(LatencyEstimator, CacheInvalidatesOnPublish) {
  const PipelineSpec lv = MakeLiveVideo();
  StateBoard board = UniformBoard(5, 10 * kUsPerMs);
  EstimatorOptions options = HighResOptions();
  options.include_wait = false;
  LatencyEstimator est(&lv, &board, options, Rng(12));
  const Duration before = est.EstimateSubsequent(0);
  // Same board version: cached value returned.
  EXPECT_EQ(est.EstimateSubsequent(0), before);
  // Bump module 4's duration: the estimate must change after publish.
  ModuleState s;
  s.module_id = 4;
  s.batch_duration = 100 * kUsPerMs;
  board.Publish(std::move(s));
  EXPECT_EQ(est.EstimateSubsequent(0), before + 90 * kUsPerMs);
}

// Parameterized sweep: the sweet spot moves toward sum d / 2 as the number of
// cascaded downstream modules grows (the central-limit effect of Fig. 6).
class SweetSpotConcentrationTest : public ::testing::TestWithParam<int> {};

TEST_P(SweetSpotConcentrationTest, FractionGrowsWithCascadeDepth) {
  const int depth = GetParam();
  // Build a chain pipeline of depth+1 modules.
  std::vector<ModuleSpec> modules;
  for (int i = 0; i <= depth; ++i) {
    ModuleSpec m;
    m.id = i;
    m.model = "eye_tracking";
    if (i > 0) {
      m.pres.push_back(i - 1);
    }
    if (i < depth) {
      m.subs.push_back(i + 1);
    }
    modules.push_back(std::move(m));
  }
  const PipelineSpec spec("deep", MsToUs(1000), std::move(modules));
  StateBoard board = UniformBoard(depth + 1, 10 * kUsPerMs);
  LatencyEstimator est(&spec, &board, HighResOptions(), Rng(13));
  std::vector<int> path;
  for (int i = 1; i <= depth; ++i) {
    path.push_back(i);
  }
  const double fraction =
      static_cast<double>(est.AggregateWaitQuantile(path, 0.1)) /
      (static_cast<double>(depth) * 10.0 * kUsPerMs);
  const double analytic = IrwinHallQuantile(depth, 0.1) / depth;
  EXPECT_NEAR(fraction, analytic, 0.03);
  if (depth >= 2) {
    // Deeper cascades concentrate toward 1/2.
    EXPECT_GT(fraction, IrwinHallQuantile(depth - 1, 0.1) / (depth - 1) - 0.03);
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, SweetSpotConcentrationTest, ::testing::Values(1, 2, 3, 4, 6, 8));

// Chain pipeline of depth+1 modules (module 0 -> ... -> depth).
PipelineSpec MakeChainSpec(int depth) {
  std::vector<ModuleSpec> modules;
  for (int i = 0; i <= depth; ++i) {
    ModuleSpec m;
    m.id = i;
    m.model = "eye_tracking";
    if (i > 0) {
      m.pres.push_back(i - 1);
    }
    if (i < depth) {
      m.subs.push_back(i + 1);
    }
    modules.push_back(std::move(m));
  }
  return PipelineSpec("deep", MsToUs(1000), std::move(modules));
}

// Board mixing both wait-sample regimes: even modules carry an observed
// reservoir (sampled path), odd modules are empty (uniform fallback path).
StateBoard MixedBoard(int n, Duration d, std::uint64_t seed) {
  StateBoard board(n);
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    ModuleState s;
    s.module_id = i;
    s.batch_duration = d;
    s.batch_size = 4;
    s.avg_queue_delay = 1500.0;
    if (i % 2 == 0) {
      for (int j = 0; j < 257; ++j) {
        s.wait_samples.push_back(rng.Uniform(0.0, static_cast<double>(d)));
      }
      std::sort(s.wait_samples.begin(), s.wait_samples.end());
    }
    board.Publish(std::move(s));
  }
  return board;
}

// The vectorized sweet-spot kernel (batched draws + nth_element selection,
// ISSUE 10) must be bit-identical to the scalar reference — the preserved
// AggregateWaitDistribution + EmpiricalDistribution::Quantile pipeline — for
// every (path depth, lambda, mc_samples) cell, including the degenerate
// single-sample and interpolation-heavy cases. Both estimators consume their
// shared streams at the same rate (path.size() * mc draws per call), so each
// cell compares draws from identical RNG states.
TEST(LatencyEstimator, VectorizedQuantileParityGrid) {
  const double lambdas[] = {0.0, 0.05, 0.1, 0.5, 0.9, 1.0};
  for (int depth : {1, 2, 4, 8}) {
    const PipelineSpec spec = MakeChainSpec(depth);
    StateBoard board = MixedBoard(depth + 1, 10 * kUsPerMs, 99);
    std::vector<int> path;
    for (int i = 1; i <= depth; ++i) {
      path.push_back(i);
    }
    for (int mc : {1, 2, 7, 64, 512}) {
      EstimatorOptions options;
      options.mc_samples = mc;
      LatencyEstimator vectorized(&spec, &board, options, Rng(31).Fork("estimator"));
      LatencyEstimator reference(&spec, &board, options, Rng(31).Fork("estimator"));
      for (double lambda : lambdas) {
        const Duration fast = vectorized.AggregateWaitQuantile(path, lambda);
        const Duration slow = static_cast<Duration>(
            std::llround(reference.AggregateWaitDistribution(path).Quantile(lambda)));
        EXPECT_EQ(fast, slow) << "depth " << depth << " mc " << mc << " lambda " << lambda;
      }
    }
  }
}

// ---- Incremental refresh (RefreshAll) -------------------------------------

std::vector<ModuleState> ChainStates(int n, Duration d, double q_delay) {
  std::vector<ModuleState> states;
  for (int i = 0; i < n; ++i) {
    ModuleState s;
    s.module_id = i;
    s.batch_duration = d;
    s.batch_size = 4;
    s.avg_queue_delay = q_delay;
    states.push_back(std::move(s));
  }
  return states;
}

TEST(LatencyEstimator, RefreshAllSkipsEntriesWhoseInputsDidNotMove) {
  const int n = 6;
  const PipelineSpec spec = MakeChainSpec(n - 1);
  StateBoard board(n);
  for (ModuleState& s : ChainStates(n, 10 * kUsPerMs, 1000.0)) {
    board.Publish(std::move(s));
  }
  LatencyEstimator est(&spec, &board, EstimatorOptions(), Rng(41).Fork("estimator"));

  // First refresh computes everything.
  LatencyEstimator::RefreshStats stats = est.RefreshAll(nullptr);
  EXPECT_EQ(stats.refreshed, n);
  EXPECT_EQ(stats.skipped, 0);

  // Nothing published since: all skipped.
  stats = est.RefreshAll(nullptr);
  EXPECT_EQ(stats.refreshed, 0);
  EXPECT_EQ(stats.skipped, n);

  // Re-publishing identical estimator inputs must not dirty anything.
  for (ModuleState& s : ChainStates(n, 10 * kUsPerMs, 1000.0)) {
    board.Publish(std::move(s));
  }
  stats = est.RefreshAll(nullptr);
  EXPECT_EQ(stats.refreshed, 0);
  EXPECT_EQ(stats.skipped, n);

  // Change only the sink's batch duration: every upstream entry depends on
  // it, but the sink's own (empty) downstream set does not.
  ModuleState sink;
  sink.module_id = n - 1;
  sink.batch_duration = 20 * kUsPerMs;
  sink.batch_size = 4;
  sink.avg_queue_delay = 1000.0;
  const Duration before = est.EstimateSubsequent(0);
  board.Publish(std::move(sink));
  stats = est.RefreshAll(nullptr);
  EXPECT_EQ(stats.refreshed, n - 1);
  EXPECT_EQ(stats.skipped, 1);
  EXPECT_GT(est.EstimateSubsequent(0), before);
}

// Modes whose w_k term reads no Monte-Carlo samples (PARD-upper, -lower,
// -sf) must not pay for drawing them at every sync, and their estimates
// stay the exact closed forms.
TEST(LatencyEstimator, RefreshAllDrawsNoSamplesForRngFreeWaitModes) {
  const PipelineSpec lv = MakeLiveVideo();
  const Duration d = 10 * kUsPerMs;
  const Duration q = 3 * kUsPerMs;
  StateBoard board = UniformBoard(5, d, static_cast<double>(q));
  EstimatorOptions upper;
  upper.wait_mode = EstimatorOptions::WaitMode::kUpper;
  EstimatorOptions lower;
  lower.wait_mode = EstimatorOptions::WaitMode::kLower;
  EstimatorOptions sf;
  sf.include_queue = false;
  sf.include_wait = false;
  LatencyEstimator est_upper(&lv, &board, upper, Rng(51));
  LatencyEstimator est_lower(&lv, &board, lower, Rng(52));
  LatencyEstimator est_sf(&lv, &board, sf, Rng(53));
  LatencyEstimator est_sweet(&lv, &board, EstimatorOptions(), Rng(54));

  EXPECT_EQ(est_upper.RefreshAll(nullptr).redrawn, 0);
  EXPECT_EQ(est_lower.RefreshAll(nullptr).redrawn, 0);
  EXPECT_EQ(est_sf.RefreshAll(nullptr).redrawn, 0);
  EXPECT_EQ(est_sweet.RefreshAll(nullptr).redrawn, 5);  // Control: it does draw.
  // PARD-upper from module 0: sum q + sum d + sum d over the 4 downstream modules.
  EXPECT_EQ(est_upper.EstimateSubsequent(0), 4 * q + 8 * d);
  EXPECT_EQ(est_lower.EstimateSubsequent(0), 4 * q + 4 * d);
  EXPECT_EQ(est_sf.EstimateSubsequent(0), 4 * d);

  // A real input change recomputes the upstream entries, still without
  // drawing, and moves the estimate by exactly the changed terms.
  ModuleState slow;
  slow.module_id = 2;
  slow.batch_duration = 2 * d;
  slow.avg_queue_delay = static_cast<double>(q);
  slow.batch_size = 4;
  board.Publish(std::move(slow));
  const LatencyEstimator::RefreshStats stats = est_upper.RefreshAll(nullptr);
  EXPECT_EQ(stats.redrawn, 0);
  EXPECT_EQ(stats.refreshed, 2);  // Entries 0 and 1 have module 2 downstream.
  EXPECT_EQ(est_upper.EstimateSubsequent(0), 4 * q + 10 * d);
  EXPECT_EQ(est_upper.EstimateSubsequent(1), 3 * q + 8 * d);
}

TEST(LatencyEstimator, RefreshAllDeterministicAcrossThreadCounts) {
  // Per-module forked streams make the refresh a deterministic function of
  // each module's dirty-event count — the pooled fan-out must reproduce the
  // serial refresh exactly, round after round, under partial dirtiness.
  const int n = 8;
  const PipelineSpec spec = MakeChainSpec(n - 1);
  StateBoard board_serial(n);
  StateBoard board_pooled(n);
  LatencyEstimator serial(&spec, &board_serial, EstimatorOptions(),
                          Rng(77).Fork("estimator"));
  LatencyEstimator pooled(&spec, &board_pooled, EstimatorOptions(),
                          Rng(77).Fork("estimator"));
  ThreadPool pool(4);
  for (int round = 0; round < 4; ++round) {
    // Rounds dirty a shrinking suffix of the chain (all, then last 3, 2, 1).
    const int first_dirty = round == 0 ? 0 : n - 4 + round;
    for (int m = first_dirty; m < n; ++m) {
      ModuleState s;
      s.module_id = m;
      s.batch_duration = (10 + 2 * round) * kUsPerMs;
      s.batch_size = 4;
      s.avg_queue_delay = 500.0 * (round + 1);
      ModuleState copy = s;
      board_serial.Publish(std::move(s));
      board_pooled.Publish(std::move(copy));
    }
    const LatencyEstimator::RefreshStats a = serial.RefreshAll(nullptr);
    const LatencyEstimator::RefreshStats b = pooled.RefreshAll(&pool);
    EXPECT_EQ(a.refreshed, b.refreshed) << round;
    EXPECT_EQ(a.skipped, b.skipped) << round;
    for (int m = 0; m < n; ++m) {
      EXPECT_EQ(serial.EstimateSubsequent(m), pooled.EstimateSubsequent(m))
          << "round " << round << " module " << m;
      EXPECT_EQ(serial.PathEstimates(m), pooled.PathEstimates(m))
          << "round " << round << " module " << m;
    }
  }
}

TEST(LatencyEstimator, HeterogeneousFleetStretchesExecAndWaitTerms) {
  // A fleet averaging half the baseline speed (mean_speed 0.5) doubles the
  // effective batch duration, so both the exec sum and the uniform-fallback
  // wait quantile scale accordingly — the estimator reasons against the
  // fleet's effective service rate, not `workers × uniform profile`.
  const PipelineSpec lv = MakeLiveVideo();
  const Duration d = 10 * kUsPerMs;
  StateBoard baseline_board = UniformBoard(5, d);
  StateBoard hetero_board(5);
  for (int i = 0; i < 5; ++i) {
    ModuleState s;
    s.module_id = i;
    s.batch_duration = d;
    s.batch_size = 4;
    s.num_workers = 2;
    s.effective_units = 1.0;  // Two workers of grade 0.5.
    s.mean_speed = 0.5;
    hetero_board.Publish(std::move(s));
  }
  LatencyEstimator baseline(&lv, &baseline_board, HighResOptions(), Rng(6));
  LatencyEstimator hetero(&lv, &hetero_board, HighResOptions(), Rng(6));
  const double base = static_cast<double>(baseline.EstimateSubsequent(0));
  const double slow = static_cast<double>(hetero.EstimateSubsequent(0));
  // Every term is linear in the effective duration: the estimate doubles.
  EXPECT_NEAR(slow, 2.0 * base, 2.0 * base * 0.05);
}

}  // namespace
}  // namespace pard
