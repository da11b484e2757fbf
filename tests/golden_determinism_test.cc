// Kernel-equivalence goldens (ISSUE 3): the slab/timer-wheel event kernel,
// the epoch-cached estimator, the compacting RequestQueue and the request
// arena are pure performance work — every run must stay bit-identical to the
// pre-refactor kernel. The expected values below were harvested from the
// pre-refactor build (PR 2 tree, commit 0a4ce21) on the fig08/fig14a smoke
// configurations plus DAG-dynamic and sharded variants; doubles are compared
// exactly (printed and re-parsed at %.17g, which round-trips).
//
// If an intentional behavior change ever invalidates these numbers, re-run
// the configs below and update the table in the same commit, explaining why
// bit-identity was allowed to break.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "pipeline/apps.h"
#include "pipeline/tenant_spec.h"
#include "resilience/chaos.h"
#include "runtime/backend_fleet.h"
#include "runtime/batch_planner.h"
#include "trace/rate_function.h"

namespace pard {
namespace {

struct Golden {
  const char* name;
  std::size_t total;
  std::size_t good;
  std::size_t dropped;
  double drop_rate;
  double invalid_rate;
  double mean_goodput;
  double normalized_goodput;
};

constexpr Golden kGoldens[] = {
    {"fig08-smoke-pard", 38u, 38u, 0u, 0, 0, 25.729150585947551, 1},
    {"fig08-smoke-nexus", 38u, 38u, 0u, 0, 0, 25.729150585947551, 1},
    {"fig14a-smoke-pard", 1485u, 1328u, 157u, 0.10572390572390572, 0, 567.00960500607994,
     0.89427609427609422},
    {"fig14a-smoke-clipper", 1485u, 1071u, 414u, 0.27878787878787881, 0.049918674253622577,
     458.48387814859842, 0.72121212121212119},
    {"fig14a-smoke-pard-jitter", 1485u, 1329u, 156u, 0.10505050505050505, 0, 572.42291242230942,
     0.89494949494949494},
    {"dag-dynamic-pard-path", 81u, 81u, 0u, 0, 0, 54.527609146097639, 1},
    {"sharded-lv-pard", 2524u, 2524u, 0u, 0, 0, 83.872356110061276, 1},
    {"fig14a-smoke-pard-reservoir1024", 1485u, 1328u, 157u, 0.10572390572390572, 0,
     567.00960500607994, 0.89427609427609422},
    {"fig14a-smoke-pard-reservoir256", 1485u, 1328u, 157u, 0.10572390572390572, 0,
     567.00960500607994, 0.89427609427609422},
};

void ExpectGolden(const Golden& golden, const ExperimentResult& result) {
  const RunAnalysis& a = *result.analysis;
  EXPECT_EQ(a.Total(), golden.total) << golden.name;
  EXPECT_EQ(a.GoodCount(), golden.good) << golden.name;
  EXPECT_EQ(a.DroppedCount(), golden.dropped) << golden.name;
  // Exact comparisons on purpose: "close" would hide nondeterminism.
  EXPECT_EQ(a.DropRate(), golden.drop_rate) << golden.name;
  EXPECT_EQ(a.InvalidRate(), golden.invalid_rate) << golden.name;
  EXPECT_EQ(a.MeanGoodput(), golden.mean_goodput) << golden.name;
  EXPECT_EQ(a.NormalizedGoodput(), golden.normalized_goodput) << golden.name;
}

const Golden& Find(const std::string& name) {
  for (const Golden& g : kGoldens) {
    if (name == g.name) {
      return g;
    }
  }
  ADD_FAILURE() << "no golden named " << name;
  return kGoldens[0];
}

// The fig08 smoke configuration (StdConfig shape at CI-smoke scale).
ExperimentConfig Fig08Smoke(const std::string& policy) {
  ExperimentConfig c;
  c.app = "lv";
  c.trace = "tweet";
  c.policy = policy;
  c.duration_s = 1.5;
  c.base_rate = 40.0;
  c.seed = 7;
  c.provision_factor = 1.25;
  c.runtime.enable_scaling = true;
  c.runtime.scaling_epoch = 5 * kUsPerSec;
  return c;
}

// The fig14a stress shape: fixed instances, constant offered rate past
// capacity — the regime where the estimator actually drops requests.
ExperimentConfig Fig14aSmoke(const std::string& policy) {
  const PipelineSpec spec = MakeLiveVideo();
  const std::vector<int> batches = PlanBatchSizes(spec);
  ExperimentConfig c;
  c.custom_spec = spec;
  c.custom_trace = RateFunction::Constant(750.0);
  c.trace = "constant";
  c.policy = policy;
  c.duration_s = 2.0;
  c.seed = 17;
  c.runtime.fixed_workers = PlanWorkers(spec, batches, 600.0, 1.0, 32, 64);
  return c;
}

TEST(GoldenDeterminism, Fig08SmokePard) {
  ExpectGolden(Find("fig08-smoke-pard"), RunExperiment(Fig08Smoke("pard")));
}

TEST(GoldenDeterminism, Fig08SmokeNexus) {
  ExpectGolden(Find("fig08-smoke-nexus"), RunExperiment(Fig08Smoke("nexus")));
}

TEST(GoldenDeterminism, Fig14aSmokePard) {
  ExpectGolden(Find("fig14a-smoke-pard"), RunExperiment(Fig14aSmoke("pard")));
}

TEST(GoldenDeterminism, Fig14aSmokeClipper) {
  ExpectGolden(Find("fig14a-smoke-clipper"), RunExperiment(Fig14aSmoke("clipper++")));
}

TEST(GoldenDeterminism, Fig14aSmokePardWithExecJitter) {
  ExperimentConfig c = Fig14aSmoke("pard");
  c.runtime.exec_jitter = 0.05;
  ExpectGolden(Find("fig14a-smoke-pard-jitter"), RunExperiment(c));
}

// Reservoirs smaller than the samples a module sees, harvested before the
// sorted mirror (stats/reservoir.h) replaced the per-sync full sort. At 1024
// the ring wraps with fewer new samples per sync than its capacity (the
// merge-and-evict path); at 256 more samples arrive per sync than it holds
// (the full-sort fallback). Both equal the fig14a-smoke-pard row: at this
// scale no decision turns on the reservoir size, so these rows pin that
// both paths run cleanly inside a run, and stats_test pins the mirror's
// contents.
TEST(GoldenDeterminism, Fig14aSmokePardReservoirWrapsBetweenSyncs) {
  ExperimentConfig c = Fig14aSmoke("pard");
  c.runtime.reservoir_capacity = 1024;
  ExpectGolden(Find("fig14a-smoke-pard-reservoir1024"), RunExperiment(c));
}

TEST(GoldenDeterminism, Fig14aSmokePardReservoirOverflowsBetweenSyncs) {
  ExperimentConfig c = Fig14aSmoke("pard");
  c.runtime.reservoir_capacity = 256;
  ExpectGolden(Find("fig14a-smoke-pard-reservoir256"), RunExperiment(c));
}

TEST(GoldenDeterminism, DagDynamicPathPrediction) {
  ExperimentConfig c;
  c.app = "da";
  c.trace = "wiki";
  c.policy = "pard-path";
  c.duration_s = 1.5;
  c.base_rate = 40.0;
  c.seed = 7;
  c.runtime.dynamic_paths = true;
  ExpectGolden(Find("dag-dynamic-pard-path"), RunExperiment(c));
}

// ISSUE 5 heterogeneity refactor: a homogeneous grade-1.0 fleet must be
// bit-identical to the pre-refactor kernel even when the catalog is spelled
// out explicitly — the backend-profile layer may not perturb a single
// decision, timestamp or RNG draw of the historical configurations.
TEST(GoldenDeterminism, ExplicitBaselineCatalogIsBitIdenticalOnFig08) {
  ExperimentConfig c = Fig08Smoke("pard");
  PipelineSpec spec = MakeApp("lv");
  spec.set_backends({BackendProfile{}});  // One explicit grade-1.0 profile.
  c.custom_spec = std::move(spec);
  ExpectGolden(Find("fig08-smoke-pard"), RunExperiment(c));
}

TEST(GoldenDeterminism, TwoIdenticalBaselineProfilesAreBitIdenticalUnderJitter) {
  // Round-robin over two *identical* baseline profiles is the same fleet;
  // the jitter config additionally pins the per-module RNG draw sequence.
  ExperimentConfig c = Fig14aSmoke("pard");
  c.runtime.exec_jitter = 0.05;
  PipelineSpec spec = MakeLiveVideo();
  BackendProfile a;
  a.name = "a";
  BackendProfile b;
  b.name = "b";
  spec.set_backends({a, b});
  c.custom_spec = std::move(spec);
  ExpectGolden(Find("fig14a-smoke-pard-jitter"), RunExperiment(c));
}

TEST(GoldenDeterminism, ExplicitBaselineCatalogIsBitIdenticalOnDynamicDag) {
  ExperimentConfig c;
  c.app = "da";
  c.trace = "wiki";
  c.policy = "pard-path";
  c.duration_s = 1.5;
  c.base_rate = 40.0;
  c.seed = 7;
  c.runtime.dynamic_paths = true;
  PipelineSpec spec = MakeApp("da");
  spec.set_backends({BackendProfile{}});
  c.custom_spec = std::move(spec);
  ExpectGolden(Find("dag-dynamic-pard-path"), RunExperiment(c));
}

TEST(GoldenDeterminism, ShardedRunMatchesPreRefactorKernel) {
  ExperimentConfig c;
  c.app = "lv";
  c.trace = "tweet";
  c.policy = "pard";
  c.duration_s = 30.0;
  c.base_rate = 50.0;
  c.seed = 7;
  ExpectGolden(Find("sharded-lv-pard"), RunShardedExperiment(c, 4, 2));
}

// ---- Request-lifecycle goldens -------------------------------------------
//
// These rows pin the lifecycle paths the rows above never reach: ingress
// tenant stamping and shedding, fleet kill/add, chaos hang/slow/stall-sync,
// the deadline-aware retry decision, and DAG merges whose sibling branch
// dropped while the merge was still waiting. Besides the summary they
// compare the per-reason drop counts, the retry tally and the number of
// dropped requests that had already reached a merge with at least one
// branch. Harvested from commit adc56cd, before the sim and serve runtimes
// were moved onto the shared request-lifecycle core. The da-overload-static
// row was re-harvested when the simulator's estimator moved from lazy
// shared-stream draws onto the per-module streams RefreshAll draws at every
// sync (the other rows did not move).
struct LifecycleGolden {
  Golden summary;
  // Indexed by DropReason (kNone .. kTenantShed).
  std::array<std::size_t, kNumDropReasons> drop_reasons;
  std::uint64_t retries;
  std::size_t merge_partial_drops;
};

constexpr LifecycleGolden kLifecycleGoldens[] = {
    {{"fig14a-tenants-chaos-retry", 1485u, 159u, 1326u, 0.89292929292929291,
      0.64324349926745183, 73.850441244774728, 0.10707070707070707},
     {0u, 0u, 134u, 62u, 0u, 975u, 0u, 67u, 6u, 82u},
     48u,
     0u},
    {{"da-overload-static", 980u, 850u, 130u, 0.1326530612244898, 0.0034491922862509251,
      364.96350364963502, 0.86734693877551017},
     {0u, 0u, 29u, 101u, 0u, 0u, 0u, 0u, 0u, 0u},
     0u,
     3u},
    {{"da-overload-dynamic", 980u, 854u, 126u, 0.12857142857142856, 0, 369.69696969696969,
      0.87142857142857144},
     {0u, 0u, 25u, 101u, 0u, 0u, 0u, 0u, 0u, 0u},
     0u,
     0u},
};

// Dropped requests that had already delivered at least one branch to a DAG
// merge: the sibling dropped while the merge was pending (or the branch
// reached the merge after its sibling dropped).
std::size_t MergePartialDrops(const ExperimentResult& result) {
  std::size_t count = 0;
  for (const RequestPtr& req : result.analysis->requests()) {
    if (req->fate != RequestFate::kDropped) {
      continue;
    }
    for (const ModuleSpec& m : result.spec.modules()) {
      if (m.pres.size() > 1 && m.id != req->drop_module &&
          req->merge_arrivals[static_cast<std::size_t>(m.id)] > 0) {
        ++count;
        break;
      }
    }
  }
  return count;
}

void ExpectLifecycleGolden(const std::string& name, const ExperimentResult& result) {
  const LifecycleGolden* golden = nullptr;
  for (const LifecycleGolden& g : kLifecycleGoldens) {
    if (name == g.summary.name) {
      golden = &g;
    }
  }
  ASSERT_NE(golden, nullptr) << "no lifecycle golden named " << name;
  const RunAnalysis& a = *result.analysis;
  ExpectGolden(golden->summary, result);
  const std::vector<std::size_t> reasons = a.DropReasonCounts();
  ASSERT_EQ(reasons.size(), golden->drop_reasons.size()) << name;
  for (std::size_t r = 0; r < reasons.size(); ++r) {
    EXPECT_EQ(reasons[r], golden->drop_reasons[r])
        << name << " reason " << DropReasonName(static_cast<DropReason>(r));
  }
  EXPECT_EQ(result.retries, golden->retries) << name;
  EXPECT_EQ(MergePartialDrops(result), golden->merge_partial_drops) << name;
}

// The fig14a overload with the reference tenant mix, a fleet kill/add
// schedule, every chaos kind and bounded retries, all inside the 2 s run.
TEST(GoldenDeterminism, Fig14aTenantsChaosAndRetries) {
  ExperimentConfig c = Fig14aSmoke("pard");
  c.runtime.tenants = MakeReferenceTenantCatalog();
  c.runtime.fleet_events = ParseFaultSchedule("0.5:3:kill:3,1.0:1:kill:3,1.4:1:add:2");
  c.runtime.resilience.chaos =
      ParseChaosSchedule("0.4:0:hang:1:0.5, 0.9:1:slow:2.0:0.6, 1.2:stall-sync:0.5");
  c.runtime.resilience.max_retries = 2;
  const ExperimentResult result = RunExperiment(c);
  const std::vector<std::size_t> reasons = result.analysis->DropReasonCounts();
  EXPECT_GT(reasons[static_cast<std::size_t>(DropReason::kTenantShed)], 0u);
  EXPECT_GT(reasons[static_cast<std::size_t>(DropReason::kWorkerFailure)] +
                reasons[static_cast<std::size_t>(DropReason::kRetryExhausted)],
            0u);
  EXPECT_GT(result.retries, 0u);
  ExpectLifecycleGolden("fig14a-tenants-chaos-retry", result);
}

// The da fork/merge DAG at a constant rate past its planned capacity, so
// branches drop while their merge partner is in flight.
ExperimentConfig DagOverload(bool dynamic_paths) {
  const PipelineSpec spec = MakeApp("da");
  const std::vector<int> batches = PlanBatchSizes(spec);
  ExperimentConfig c;
  c.custom_spec = spec;
  c.custom_trace = RateFunction::Constant(500.0);
  c.trace = "constant";
  c.policy = "pard";
  c.duration_s = 2.0;
  c.seed = 17;
  c.runtime.fixed_workers = PlanWorkers(spec, batches, 350.0, 1.0, 32, 64);
  c.runtime.dynamic_paths = dynamic_paths;
  return c;
}

TEST(GoldenDeterminism, DagOverloadStaticPaths) {
  const ExperimentResult result = RunExperiment(DagOverload(false));
  EXPECT_GT(MergePartialDrops(result), 0u);
  ExpectLifecycleGolden("da-overload-static", result);
}

TEST(GoldenDeterminism, DagOverloadDynamicPaths) {
  ExpectLifecycleGolden("da-overload-dynamic", RunExperiment(DagOverload(true)));
}

}  // namespace
}  // namespace pard
