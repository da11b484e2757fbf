#include "runtime/batch_planner.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "models/registry.h"

namespace pard {

std::vector<int> PlanBatchSizes(const PipelineSpec& spec) {
  const int n = spec.NumModules();
  // Module shares proportional to single-sample durations.
  Duration total_d1 = 0;
  for (const ModuleSpec& m : spec.modules()) {
    total_d1 += ProfileRegistry::Get(m.model).BatchDuration(1);
  }
  PARD_CHECK(total_d1 > 0);
  std::vector<int> batches(static_cast<std::size_t>(n), 1);
  for (const ModuleSpec& m : spec.modules()) {
    const ModelProfile& profile = ProfileRegistry::Get(m.model);
    const double share = static_cast<double>(profile.BatchDuration(1)) /
                         static_cast<double>(total_d1);
    const Duration budget =
        static_cast<Duration>(share * static_cast<double>(spec.slo()));
    batches[static_cast<std::size_t>(m.id)] = profile.LargestFeasibleBatch(budget);
  }
  return batches;
}

std::vector<int> PlanWorkers(const PipelineSpec& spec, const std::vector<int>& batch_sizes,
                             double rate, double headroom, int max_per_module, int total_gpus) {
  PARD_CHECK(rate > 0.0);
  PARD_CHECK(headroom > 0.0);
  const int n = spec.NumModules();
  PARD_CHECK(static_cast<int>(batch_sizes.size()) == n);
  std::vector<int> workers(static_cast<std::size_t>(n), 1);
  int total = 0;
  for (const ModuleSpec& m : spec.modules()) {
    const ModelProfile& profile = ProfileRegistry::Get(m.model);
    const double tput = profile.Throughput(batch_sizes[static_cast<std::size_t>(m.id)]);
    const int need = static_cast<int>(std::ceil(rate * headroom / tput));
    workers[static_cast<std::size_t>(m.id)] = std::clamp(need, 1, max_per_module);
    total += workers[static_cast<std::size_t>(m.id)];
  }
  if (total > total_gpus) {
    const double scale = static_cast<double>(total_gpus) / static_cast<double>(total);
    for (int& w : workers) {
      w = std::max(1, static_cast<int>(std::floor(w * scale)));
    }
  }
  return workers;
}

namespace {

// Longest (source->module inclusive) path weight per module, where each
// module's own weight is given by `weight`.
std::vector<double> LongestPrefixWeights(const PipelineSpec& spec,
                                         const std::vector<double>& weight) {
  const int n = spec.NumModules();
  std::vector<double> prefix(static_cast<std::size_t>(n), 0.0);
  for (int id : spec.TopoOrder()) {
    double best_pre = 0.0;
    for (int p : spec.Module(id).pres) {
      best_pre = std::max(best_pre, prefix[static_cast<std::size_t>(p)]);
    }
    prefix[static_cast<std::size_t>(id)] = best_pre + weight[static_cast<std::size_t>(id)];
  }
  return prefix;
}

}  // namespace

std::vector<Duration> CumulativeBudgetsFromWeights(const PipelineSpec& spec,
                                                   const std::vector<double>& weights,
                                                   Duration slo) {
  const int n = spec.NumModules();
  PARD_CHECK(static_cast<int>(weights.size()) == n);
  for (double w : weights) {
    PARD_CHECK_MSG(w > 0.0, "split weights must be positive");
  }
  const std::vector<double> prefix = LongestPrefixWeights(spec, weights);
  const double total = prefix[static_cast<std::size_t>(spec.SinkModule())];
  PARD_CHECK(total > 0.0);
  std::vector<Duration> budgets(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    budgets[static_cast<std::size_t>(i)] = static_cast<Duration>(
        static_cast<double>(slo) * prefix[static_cast<std::size_t>(i)] / total);
  }
  return budgets;
}

std::vector<int> PlanInitialWorkers(const PipelineSpec& spec, const std::vector<int>& batch_sizes,
                                    const RuntimeOptions& options, double expected_rate) {
  if (options.fixed_workers.empty()) {
    return PlanWorkers(spec, batch_sizes, expected_rate, options.provision_headroom,
                       options.max_workers_per_module, options.total_gpus);
  }
  PARD_CHECK_MSG(static_cast<int>(options.fixed_workers.size()) == spec.NumModules(),
                 "fixed_workers size must match module count");
  return options.fixed_workers;
}

std::vector<Duration> CumulativeSplitBudgets(const PipelineSpec& spec,
                                             const std::vector<int>& batch_sizes) {
  const int n = spec.NumModules();
  PARD_CHECK(static_cast<int>(batch_sizes.size()) == n);
  std::vector<double> weights(static_cast<std::size_t>(n), 0.0);
  for (const ModuleSpec& m : spec.modules()) {
    const ModelProfile& profile = ProfileRegistry::Get(m.model);
    weights[static_cast<std::size_t>(m.id)] = static_cast<double>(
        profile.BatchDuration(batch_sizes[static_cast<std::size_t>(m.id)]));
  }
  return CumulativeBudgetsFromWeights(spec, weights, spec.slo());
}

}  // namespace pard
