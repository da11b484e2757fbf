// Per-module controller: dispatching, state collection and publication.
//
// Plays the paper's controller role for one module — the State Planner's
// monitoring half lives here (queue-delay window, rate tracking, batch-wait
// reservoir, load factor, burstiness) and is published to the StateBoard on
// every sync tick; the estimation half (w_k, L_sub) lives in src/core and
// reads the board.
#ifndef PARD_RUNTIME_MODULE_RUNTIME_H_
#define PARD_RUNTIME_MODULE_RUNTIME_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "models/model_profile.h"
#include "pipeline/pipeline_spec.h"
#include "runtime/backend_fleet.h"
#include "runtime/rate_monitor.h"
#include "runtime/request.h"
#include "runtime/runtime_options.h"
#include "runtime/state_board.h"
#include "runtime/worker.h"
#include "sim/simulation.h"
#include "stats/reservoir.h"
#include "stats/sliding_window.h"

namespace pard {

class PipelineRuntime;
class Counter;          // obs/metrics.h
class AtomicHistogram;  // obs/metrics.h

class ModuleRuntime {
 public:
  ModuleRuntime(Simulation* sim, PipelineRuntime* pipeline, BackendFleet* fleet,
                const ModuleSpec& spec, const ModelProfile& profile, int batch_size,
                int initial_workers, const RuntimeOptions& options);

  // Delivery from the dispatcher (or pipeline ingress).
  void Receive(RequestPtr req);

  // Computes and publishes this module's ModuleState.
  void Sync(SimTime now, StateBoard* board);

  // Scaling: adjusts the active+warming pool toward `target_units` of
  // capacity in baseline-worker units (Σ backend speed). For a homogeneous
  // grade-1.0 fleet this is exactly the historical integer worker target.
  void SetTargetUnits(double target_units);
  // Backwards-compatible integer form.
  void SetTargetWorkers(int target) { SetTargetUnits(static_cast<double>(target)); }

  // Failure injection: kills up to `count` active workers. Their queued and
  // in-flight requests go through the deadline-aware retry path (RetryOrDrop)
  // instead of being silently lost.
  void FailWorkers(int count);

  // Recovery / explicit scale-up: provisions `count` new workers that join
  // the fleet after their backend profile's cold start.
  void AddWorkers(int count);

  // Chaos injection: hangs up to `count` dispatchable workers for `duration`
  // (0 = indefinitely; see Worker::Hang). Finite hangs self-clear via a
  // scheduled Unhang.
  void HangWorkers(int count, Duration duration);
  // Chaos injection: scales every sampled exec duration by `factor` until
  // virtual time `until`. Later calls override earlier ones.
  void SetSlowdown(double factor, SimTime until);

  // Deadline-aware retry for a failed worker's request: when
  // RequestLifecycle::RetryVerdict allows it, re-enqueue directly on a
  // surviving worker (no re-admission), else drop kRetryExhausted /
  // kWorkerFailure.
  void RetryOrDrop(RequestPtr req);

  int module_id() const { return spec_.id; }
  int batch_size() const { return batch_size_; }
  const ModelProfile& profile() const { return profile_; }
  PipelineRuntime* pipeline() const { return pipeline_; }
  Simulation* sim() const { return sim_; }
  const RuntimeOptions& options() const { return options_; }

  int ActiveWorkers() const;
  int ProvisionedWorkers() const;  // Active + cold-starting.
  double ProvisionedUnits() const;
  // Baseline-grade throughput; heterogeneous capacity is this times the
  // fleet's effective units.
  double PerWorkerThroughput() const { return profile_.Throughput(batch_size_); }
  double SmoothedInputRate(SimTime now);

  // True execution duration for a batch on a backend with the given
  // duration multiplier: the profiled d(batch), scaled, with the configured
  // multiplicative jitter applied (exec_scale == 1.0 leaves the profiled
  // value untouched).
  Duration SampleExecDuration(int batch, double exec_scale);

  // --- Hooks invoked by workers -------------------------------------------
  void RecordQueueDelay(SimTime now, Duration q_delay);
  void RecordBatchWait(SimTime now, Duration wait);
  void RecordStageLatency(SimTime now, Duration stage_latency);
  void OnExecuted(RequestPtr req);          // Forward downstream.
  // Drop with attribution (policy sites pass kProactiveAdmission /
  // kBrokerCandidate / kPurgeExpired; infrastructure sites kFaultKilled).
  void OnPolicyDrop(RequestPtr req, DropReason reason);
  // Per-module executed tally + batch-size histogram (null when metrics
  // are disabled).
  Counter* executed_counter() const { return executed_counter_; }
  AtomicHistogram* batch_size_hist() const { return batch_size_hist_; }

 private:
  friend class Worker;

  Worker* ChooseWorker();
  void ReapRetired();
  // Provisions one cold worker from the fleet and schedules its activation
  // after the slot's cold start; returns the slot's capacity units.
  double ProvisionColdWorker();

  Simulation* sim_;
  PipelineRuntime* pipeline_;
  BackendFleet* fleet_;
  ModuleSpec spec_;
  const ModelProfile& profile_;
  int batch_size_;
  RuntimeOptions options_;
  Rng jitter_rng_;

  // shared_ptr so deferred cold-start events can hold weak references and
  // safely no-op if the worker was drained and reaped in the meantime.
  // Worker ids are assigned by the fleet (dense, provisioning order).
  std::vector<std::shared_ptr<Worker>> workers_;
  std::size_t rr_cursor_ = 0;

  // State-planner monitoring.
  SlidingWindow queue_delay_window_;
  SlidingWindow stage_latency_window_;
  RecentReservoir wait_reservoir_;
  // Per-second arrival bins for input rate / burstiness (covers the stats
  // window; shared arithmetic with the serving runtime's modules).
  RateMonitor rate_monitor_;

  // Chaos slowdown window (SetSlowdown); inert at the defaults, so no-chaos
  // runs stay bit-identical.
  double slow_factor_ = 1.0;
  SimTime slow_until_ = 0;

  // Pre-resolved instruments (null when options_.metrics is null).
  Counter* executed_counter_ = nullptr;
  AtomicHistogram* batch_size_hist_ = nullptr;
};

}  // namespace pard

#endif  // PARD_RUNTIME_MODULE_RUNTIME_H_
