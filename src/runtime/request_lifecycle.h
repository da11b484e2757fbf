// Request lifecycle core shared by the simulator and the serving runtime.
//
// PARD's results are defined on one lifecycle per request: stamp identity,
// tenant and deadline at ingress; count DAG-merge arrivals; route a request
// that finished a module to its successors; resolve it to exactly one
// terminal fate with a drop reason; decide whether a failed worker's request
// is retried; and account every fate in the exported counters and the
// trace. Both substrates call this class for each of those steps, so an
// invariant, metric or drop reason is written once.
//
// What each substrate supplies around it:
//   - Simulator (runtime/pipeline_runtime.h): nothing. Every step runs on
//     the single event-loop thread.
//   - Serving runtime (serve/serve_runtime.h): the request's fate stripe
//     (LockRank::kFate) around the state transitions — CountMergeArrival,
//     Drop and Complete — plus its in-flight counter, adjusted under the
//     stripe on every fate flip. Account runs after the stripe is released:
//     counters are lock-free, trace emission goes through per-thread shards,
//     and a resolved request's fields never change again.
//
// The core takes no lock. Stamp (and with it the dynamic-path Rng and the
// id counter) belongs to the one ingress thread; the retry tally is atomic
// so any worker thread may NoteRetry. The serve-only delivery front-end
// (ServeRuntime::AdmitOnDelivery) is the one lifecycle step outside it.
#ifndef PARD_RUNTIME_REQUEST_LIFECYCLE_H_
#define PARD_RUNTIME_REQUEST_LIFECYCLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/tenant_governor.h"
#include "pipeline/pipeline_spec.h"
#include "resilience/chaos.h"
#include "runtime/backend_fleet.h"
#include "runtime/request.h"
#include "runtime/runtime_options.h"

namespace pard {

class Counter;        // obs/metrics.h
class TraceRecorder;  // obs/trace_recorder.h

class RequestLifecycle {
 public:
  // `spec` must outlive the core. Validates the fault and chaos schedules
  // and the resilience options against the pipeline (throws CheckError).
  RequestLifecycle(const PipelineSpec* spec, const RuntimeOptions& options);

  // --- Ingress (ingress thread only) ---------------------------------------
  // Stamps a fresh request: the next id, send time `now`, tenant identity,
  // weight and tenant-scaled SLO, deadline, per-module hop and merge slots,
  // and (under dynamic_paths) the branch taken at every fork. Returns false
  // when the tenant governor sheds the request at ingress; the caller keeps
  // the record and drops it as kTenantShed.
  bool Stamp(Request& req, SimTime now);

  // --- Delivery ------------------------------------------------------------
  bool IsMerge(int module_id) const { return spec_->Module(module_id).pres.size() > 1; }
  // Counts one delivery at merge module `module_id`. True exactly when this
  // is the last expected arrival (every pre under static routing, the
  // drawn branches under dynamic paths) and no sibling branch has resolved
  // the request.
  bool CountMergeArrival(Request& req, int module_id) const;
  // Admitted tally and sampled kAdmit event for a request entering a queue.
  void NoteAdmitted(const Request& req, int module_id, SimTime now) const;

  // Routes a request that finished `module_id`: calls deliver(sub) for the
  // branch drawn at a dynamic fork, else for every sub. Returns false at a
  // sink, where the caller completes the request instead.
  template <typename Deliver>
  bool Forward(const Request& req, int module_id, Deliver&& deliver) const {
    const ModuleSpec& m = spec_->Module(module_id);
    if (m.subs.empty()) {
      return false;
    }
    if (req.HasDynamicPath() && m.subs.size() > 1) {
      deliver(req.branch_choice[static_cast<std::size_t>(module_id)]);
      return true;
    }
    for (int sub : m.subs) {
      deliver(sub);
    }
    return true;
  }

  // --- Fate ----------------------------------------------------------------
  // Each resolves an in-flight request and returns true, or returns false
  // and changes nothing when it is already terminal. Neither counts: call
  // Account after a true return.
  bool Drop(Request& req, int module_id, SimTime now, DropReason reason) const;
  // kCompleted within the deadline, else kLate with kSloLate.
  bool Complete(Request& req, SimTime now) const;
  // Fate and tenant counters plus the sampled kFate event for a request
  // that Drop or Complete just resolved.
  void Account(const Request& req) const;
  // Drain sweep (all threads quiesced): resolves every request still in
  // flight as kLate with kDrainAbandoned, so conservation holds, and counts
  // it. Returns how many it resolved.
  std::size_t AbandonInFlight(const std::vector<RequestPtr>& requests, SimTime now) const;

  // --- Retry after a worker failure ----------------------------------------
  // kNone to re-enqueue (then NoteRetry), kRetryExhausted once max_retries
  // attempts are spent, kWorkerFailure when retries are off or the
  // remaining deadline budget cannot cover `stage_duration`.
  DropReason RetryVerdict(const Request& req, SimTime now, Duration stage_duration) const;
  // Bumps req.retry_count (the caller owns the failed batch), the retry
  // tally and counter, and emits the sampled kRetry event.
  void NoteRetry(Request& req, int module_id, SimTime now);
  std::uint64_t retries() const { return retries_.load(std::memory_order_relaxed); }

  // --- Control plane -------------------------------------------------------
  // Scaling target in baseline-worker units: the smoothed offered rate with
  // headroom over one baseline worker's throughput, or the current
  // `provisioned_units` while either is unknown.
  double ScalingTarget(double rate, double per_worker, double provisioned_units) const;
  // options.failures (as kills) and options.fleet_events, time-sorted.
  const std::vector<FleetEvent>& fault_schedule() const { return fault_schedule_; }
  // options.resilience.chaos expanded from the run seed, time-sorted.
  const std::vector<ChaosEvent>& chaos_schedule() const { return chaos_schedule_; }
  // kFleet / kChaos trace events for a schedule entry applied at its time.
  void NoteFleetEvent(const FleetEvent& event) const;
  void NoteChaosEvent(const ChaosEvent& event) const;

  // Weighted ingress governor; null for untenanted runs.
  TenantGovernor* governor() const { return governor_.get(); }

 private:
  void AssignDynamicPath(Request& req);
  // The counter half of Account.
  void Count(const Request& req) const;

  const PipelineSpec* spec_;
  bool dynamic_paths_;
  double provision_headroom_;
  int max_retries_;
  TraceRecorder* trace_;
  Rng rng_;
  std::uint64_t next_request_id_ = 1;
  std::unique_ptr<TenantGovernor> governor_;
  std::vector<FleetEvent> fault_schedule_;
  std::vector<ChaosEvent> chaos_schedule_;
  std::atomic<std::uint64_t> retries_{0};

  // Pre-resolved instruments (null / empty when metrics are disabled).
  Counter* completed_counter_ = nullptr;
  Counter* drop_reason_counters_[kNumDropReasons] = {};
  Counter* retry_counter_ = nullptr;
  std::vector<Counter*> admitted_counters_;  // Per module.
  // "tenant.<name>.completed|dropped", indexed by tenant.
  std::vector<Counter*> tenant_completed_;
  std::vector<Counter*> tenant_dropped_;
};

}  // namespace pard

#endif  // PARD_RUNTIME_REQUEST_LIFECYCLE_H_
