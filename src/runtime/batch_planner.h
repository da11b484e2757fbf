// Dynamic-batching and provisioning plans.
//
// Mirrors the Nexus-style planning the paper adopts (§5.1): split the SLO
// proportionally to per-sample model cost, pick the largest batch size whose
// double duration fits the module share (a request can wait up to one batch
// duration before executing), and provision workers from the expected rate.
#ifndef PARD_RUNTIME_BATCH_PLANNER_H_
#define PARD_RUNTIME_BATCH_PLANNER_H_

#include <vector>

#include "models/model_profile.h"
#include "pipeline/pipeline_spec.h"
#include "runtime/runtime_options.h"

namespace pard {

// Per-module batch sizes for the pipeline under its SLO.
std::vector<int> PlanBatchSizes(const PipelineSpec& spec);

// Per-module worker counts to sustain `rate` req/s with the given batch
// plan and headroom factor, clamped to [1, max_per_module] and globally to
// `total_gpus` (proportional scale-down when exceeded).
std::vector<int> PlanWorkers(const PipelineSpec& spec, const std::vector<int>& batch_sizes,
                             double rate, double headroom, int max_per_module, int total_gpus);

// A runtime's initial roster: options.fixed_workers when set (one entry per
// module), else PlanWorkers for `expected_rate` with the options' headroom
// and caps.
std::vector<int> PlanInitialWorkers(const PipelineSpec& spec, const std::vector<int>& batch_sizes,
                                    const RuntimeOptions& options, double expected_rate);

// Cumulative per-module latency budgets from proportional SLO splitting
// (Clipper++/PARD-split). For DAGs the proportion uses the longest-path
// weight through each module; cumulative budget of module k is the SLO
// fraction consumed by the heaviest source->k prefix (inclusive).
std::vector<Duration> CumulativeSplitBudgets(const PipelineSpec& spec,
                                             const std::vector<int>& batch_sizes);

// Same splitting rule but driven by arbitrary per-module weights (used by
// PARD-WCL with runtime worst-case latencies). `weights` must be positive.
std::vector<Duration> CumulativeBudgetsFromWeights(const PipelineSpec& spec,
                                                   const std::vector<double>& weights,
                                                   Duration slo);

}  // namespace pard

#endif  // PARD_RUNTIME_BATCH_PLANNER_H_
