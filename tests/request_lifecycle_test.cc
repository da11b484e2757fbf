// Unit tests for the request-lifecycle core (runtime/request_lifecycle.h)
// that both substrates run. They cover what the integration suites cannot
// isolate: idempotent fate transitions, late-completion attribution, the
// exact firing point of a DAG merge, dynamic-path arrival expectations, the
// drain sweep's reach, and tenant SLO scaling at ingress.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/drop_reason.h"
#include "obs/metrics.h"
#include "pipeline/apps.h"
#include "pipeline/tenant_spec.h"
#include "runtime/request.h"
#include "runtime/request_lifecycle.h"
#include "runtime/runtime_options.h"

namespace pard {
namespace {

// The fork/merge DAG: 0 -> {1, 2} -> 3 (merge) -> 4.
constexpr int kMerge = 3;

std::int64_t Total(MetricsRegistry& metrics, const std::string& name) {
  return metrics.GetCounter(name)->Value();
}

// The substrates' calling convention: account only a transition that
// actually happened.
void DropAndAccount(RequestLifecycle& core, Request& req, int module_id, SimTime now,
                    DropReason reason) {
  if (core.Drop(req, module_id, now, reason)) {
    core.Account(req);
  }
}

void CompleteAndAccount(RequestLifecycle& core, Request& req, SimTime now) {
  if (core.Complete(req, now)) {
    core.Account(req);
  }
}

TEST(RequestLifecycle, SecondResolutionChangesNothingAndCountsNothing) {
  const PipelineSpec spec = MakeApp("lv");
  MetricsRegistry metrics;
  RuntimeOptions options;
  options.metrics = &metrics;
  RequestLifecycle core(&spec, options);

  Request req;
  ASSERT_TRUE(core.Stamp(req, 1000));
  DropAndAccount(core, req, 2, 2000, DropReason::kBrokerCandidate);
  ASSERT_EQ(req.fate, RequestFate::kDropped);

  EXPECT_FALSE(core.Drop(req, 4, 3000, DropReason::kPurgeExpired));
  EXPECT_FALSE(core.Complete(req, 3000));
  DropAndAccount(core, req, 4, 3000, DropReason::kPurgeExpired);
  CompleteAndAccount(core, req, 3000);

  EXPECT_EQ(req.fate, RequestFate::kDropped);
  EXPECT_EQ(req.drop_module, 2);
  EXPECT_EQ(req.finish, 2000);
  EXPECT_EQ(req.drop_reason, DropReason::kBrokerCandidate);
  EXPECT_EQ(Total(metrics, "fate.dropped.broker_candidate"), 1);
  EXPECT_EQ(Total(metrics, "fate.dropped.purge_expired"), 0);
  EXPECT_EQ(Total(metrics, "fate.completed"), 0);
}

TEST(RequestLifecycle, LateCompletionIsKLateWithSloLate) {
  const PipelineSpec spec = MakeApp("lv");
  MetricsRegistry metrics;
  RuntimeOptions options;
  options.metrics = &metrics;
  RequestLifecycle core(&spec, options);

  Request on_time;
  core.Stamp(on_time, 0);
  CompleteAndAccount(core, on_time, on_time.deadline);
  EXPECT_EQ(on_time.fate, RequestFate::kCompleted);
  EXPECT_EQ(on_time.drop_reason, DropReason::kNone);

  Request late;
  core.Stamp(late, 0);
  CompleteAndAccount(core, late, late.deadline + 1);
  EXPECT_EQ(late.fate, RequestFate::kLate);
  EXPECT_EQ(late.drop_reason, DropReason::kSloLate);
  EXPECT_EQ(late.drop_module, -1);
  EXPECT_EQ(late.finish, late.deadline + 1);

  EXPECT_EQ(Total(metrics, "fate.completed"), 1);
  EXPECT_EQ(Total(metrics, "fate.dropped.slo_late"), 1);
}

TEST(RequestLifecycle, MergeFiresOnLastExpectedArrivalAndNeverAfterSiblingDrop) {
  const PipelineSpec spec = MakeApp("da");
  RequestLifecycle core(&spec, RuntimeOptions{});
  ASSERT_TRUE(core.IsMerge(kMerge));
  ASSERT_FALSE(core.IsMerge(1));

  Request joined;
  core.Stamp(joined, 0);
  EXPECT_FALSE(core.CountMergeArrival(joined, kMerge));  // First branch waits.
  EXPECT_TRUE(core.CountMergeArrival(joined, kMerge));   // Second one fires.
  EXPECT_EQ(joined.merge_arrivals[kMerge], 2);

  Request orphaned;
  core.Stamp(orphaned, 0);
  EXPECT_FALSE(core.CountMergeArrival(orphaned, kMerge));
  ASSERT_TRUE(core.Drop(orphaned, 2, 10, DropReason::kBrokerCandidate));
  EXPECT_FALSE(core.CountMergeArrival(orphaned, kMerge));  // Sibling dropped.
  EXPECT_EQ(orphaned.merge_arrivals[kMerge], 2);

  Request dropped_first;
  core.Stamp(dropped_first, 0);
  ASSERT_TRUE(core.Drop(dropped_first, 1, 10, DropReason::kProactiveAdmission));
  EXPECT_FALSE(core.CountMergeArrival(dropped_first, kMerge));
  EXPECT_FALSE(core.CountMergeArrival(dropped_first, kMerge));
}

TEST(RequestLifecycle, DynamicPathsExpectOneArrivalAtTheDagMerge) {
  const PipelineSpec spec = MakeApp("da");
  RuntimeOptions options;
  options.dynamic_paths = true;
  RequestLifecycle core(&spec, options);

  int took_pose = 0;
  int took_face = 0;
  for (int i = 0; i < 200; ++i) {
    Request req;
    core.Stamp(req, i);
    ASSERT_TRUE(req.HasDynamicPath());
    const int chosen = req.branch_choice[0];
    ASSERT_TRUE(chosen == 1 || chosen == 2) << chosen;
    const int skipped = chosen == 1 ? 2 : 1;
    (chosen == 1 ? took_pose : took_face)++;
    EXPECT_EQ(req.expected_arrivals[0], 0);
    EXPECT_EQ(req.expected_arrivals[static_cast<std::size_t>(chosen)], 1);
    EXPECT_EQ(req.expected_arrivals[static_cast<std::size_t>(skipped)], 0);
    EXPECT_EQ(req.expected_arrivals[kMerge], 1);
    EXPECT_EQ(req.expected_arrivals[4], 1);
    // One branch feeds the merge, so its single arrival fires it.
    EXPECT_TRUE(core.CountMergeArrival(req, kMerge));
    // Routing from the fork follows the drawn branch only.
    std::vector<int> delivered;
    EXPECT_TRUE(core.Forward(req, 0, [&](int sub) { delivered.push_back(sub); }));
    EXPECT_EQ(delivered, std::vector<int>{chosen});
  }
  EXPECT_GT(took_pose, 0);
  EXPECT_GT(took_face, 0);
}

TEST(RequestLifecycle, DrainSweepResolvesOnlyInFlightRequests) {
  const PipelineSpec spec = MakeApp("lv");
  MetricsRegistry metrics;
  RuntimeOptions options;
  options.metrics = &metrics;
  RequestLifecycle core(&spec, options);

  std::vector<RequestPtr> requests;
  for (int i = 0; i < 3; ++i) {
    requests.push_back(std::make_shared<Request>());
    core.Stamp(*requests.back(), 0);
  }
  CompleteAndAccount(core, *requests[0], 100);
  DropAndAccount(core, *requests[1], 3, 200, DropReason::kPurgeExpired);

  EXPECT_EQ(core.AbandonInFlight(requests, 5000), 1u);
  EXPECT_EQ(requests[0]->fate, RequestFate::kCompleted);
  EXPECT_EQ(requests[0]->finish, 100);
  EXPECT_EQ(requests[1]->fate, RequestFate::kDropped);
  EXPECT_EQ(requests[1]->drop_reason, DropReason::kPurgeExpired);
  EXPECT_EQ(requests[1]->finish, 200);
  EXPECT_EQ(requests[2]->fate, RequestFate::kLate);
  EXPECT_EQ(requests[2]->drop_reason, DropReason::kDrainAbandoned);
  EXPECT_EQ(requests[2]->finish, 5000);
  EXPECT_EQ(Total(metrics, "fate.dropped.drain_abandoned"), 1);

  EXPECT_EQ(core.AbandonInFlight(requests, 6000), 0u);  // Nothing left.
  EXPECT_EQ(Total(metrics, "fate.dropped.drain_abandoned"), 1);
}

TEST(RequestLifecycle, TenantSloScaleScalesTheDeadline) {
  const PipelineSpec spec = MakeApp("lv");
  RuntimeOptions options;
  options.tenants = MakeReferenceTenantCatalog();
  RequestLifecycle core(&spec, options);

  bool saw_scaled = false;
  for (int i = 0; i < 100; ++i) {
    Request req;
    const SimTime sent = 1000 * i;
    core.Stamp(req, sent);
    ASSERT_GE(req.tenant, 0);
    const TenantSpec& tenant = options.tenants[static_cast<std::size_t>(req.tenant)];
    EXPECT_EQ(req.weight, tenant.weight);
    EXPECT_EQ(req.slo, static_cast<Duration>(
                           std::llround(static_cast<double>(spec.slo()) * tenant.slo_scale)));
    EXPECT_EQ(req.deadline, sent + req.slo);
    saw_scaled = saw_scaled || tenant.slo_scale != 1.0;
  }
  EXPECT_TRUE(saw_scaled) << "no request landed on a scaled tier";
}

}  // namespace
}  // namespace pard
