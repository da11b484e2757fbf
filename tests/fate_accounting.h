// Test helper: the exported fate counters must agree with the request
// records, in both substrates.
//
// A run with metrics export on writes "totals" for every counter. Each
// terminal request bumps exactly one fate counter and, when tenanted, one
// tenant counter; each successful re-enqueue bumps "resilience.retries".
// The helper recounts all of them from the records the run left behind:
//   fate.completed                == records with fate kCompleted
//   fate.dropped.<reason>         == records whose drop_reason is <reason>
//   tenant.<name>.completed       == PerTenant()[t].good
//   tenant.<name>.dropped         == PerTenant()[t].dropped
//   resilience.retries            == result.retries
#ifndef PARD_TESTS_FATE_ACCOUNTING_H_
#define PARD_TESTS_FATE_ACCOUNTING_H_

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "jsonio/json.h"
#include "metrics/analysis.h"
#include "obs/drop_reason.h"
#include "pipeline/tenant_spec.h"
#include "runtime/request.h"

namespace pard {

inline std::int64_t CounterTotal(const JsonObject& totals, const std::string& name) {
  const auto it = totals.find(name);
  EXPECT_NE(it, totals.end()) << "counter " << name << " was not exported";
  return it == totals.end() ? -1 : it->second.AsInt();
}

inline void ExpectCountersMatchRecords(const std::string& metrics_path,
                                       const ExperimentResult& result,
                                       const std::vector<TenantSpec>& tenants) {
  std::ifstream in(metrics_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << metrics_path;
  std::ostringstream text;
  text << in.rdbuf();
  const JsonValue metrics = ParseJson(text.str());
  const JsonObject& totals = metrics.At("totals").AsObject();

  std::int64_t completed = 0;
  std::vector<std::int64_t> reasons(static_cast<std::size_t>(kNumDropReasons), 0);
  for (const RequestPtr& req : result.analysis->requests()) {
    ASSERT_TRUE(req->Terminal()) << "request " << req->id;
    if (req->fate == RequestFate::kCompleted) {
      ++completed;
    } else {
      ++reasons[static_cast<std::size_t>(req->drop_reason)];
    }
  }
  EXPECT_EQ(reasons[0], 0) << "dropped requests without a reason";
  EXPECT_EQ(CounterTotal(totals, "fate.completed"), completed);
  for (int r = 1; r < kNumDropReasons; ++r) {
    const std::string name =
        std::string("fate.dropped.") + DropReasonName(static_cast<DropReason>(r));
    EXPECT_EQ(CounterTotal(totals, name), reasons[static_cast<std::size_t>(r)]) << name;
  }

  const std::vector<TenantBreakdown> per_tenant = result.analysis->PerTenant();
  ASSERT_EQ(per_tenant.size(), tenants.size());
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    const std::string prefix = "tenant." + tenants[t].name + ".";
    EXPECT_EQ(CounterTotal(totals, prefix + "completed"),
              static_cast<std::int64_t>(per_tenant[t].good))
        << prefix;
    EXPECT_EQ(CounterTotal(totals, prefix + "dropped"),
              static_cast<std::int64_t>(per_tenant[t].dropped))
        << prefix;
  }
  EXPECT_EQ(CounterTotal(totals, "resilience.retries"),
            static_cast<std::int64_t>(result.retries));
}

}  // namespace pard

#endif  // PARD_TESTS_FATE_ACCOUNTING_H_
