// Pipeline runtime: the full serving engine for one application.
//
// Owns the simulation kernel, one ModuleRuntime (controller + workers) per
// pipeline module, the shared StateBoard, the ingress dispatcher, the
// network hop between modules, the periodic state-sync tick and the
// optional resource-scaling engine. Every request-lifecycle step (stamping,
// merge counting, routing, fate, retry, accounting) is the shared
// RequestLifecycle core, called here with nothing around it. A run injects
// a trace of client arrivals and leaves behind the full set of Request
// records for offline analysis.
#ifndef PARD_RUNTIME_PIPELINE_RUNTIME_H_
#define PARD_RUNTIME_PIPELINE_RUNTIME_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/tenant_governor.h"
#include "pipeline/pipeline_spec.h"
#include "runtime/backend_fleet.h"
#include "runtime/drop_policy.h"
#include "runtime/module_runtime.h"
#include "runtime/request.h"
#include "runtime/request_arena.h"
#include "runtime/request_lifecycle.h"
#include "runtime/runtime_options.h"
#include "runtime/state_board.h"
#include "sim/simulation.h"

namespace pard {

class PipelineRuntime {
 public:
  // `policy` must outlive the runtime. Worker provisioning uses
  // options.fixed_workers if set, otherwise `expected_rate` with the
  // configured headroom.
  PipelineRuntime(const PipelineSpec& spec, const RuntimeOptions& options, DropPolicy* policy,
                  double expected_rate);

  // Runs the complete trace (sorted client send timestamps) plus drain time.
  void RunTrace(const std::vector<SimTime>& arrivals);

  // Lower-level API: schedule one client request at time t (must be called
  // before Run()).
  void ScheduleArrival(SimTime t);
  // Runs until `until` (and processes everything scheduled before it).
  void Run(SimTime until);

  Simulation& sim() { return sim_; }
  const PipelineSpec& spec() const { return spec_; }
  const StateBoard& board() const { return board_; }
  // Shared worker-roster layer: backend profiles, per-worker states and the
  // timestamped transition log (see runtime/backend_fleet.h).
  const BackendFleet& fleet() const { return fleet_; }
  ModuleRuntime& module(int id);
  const std::vector<int>& batch_sizes() const { return batch_sizes_; }

  // All requests injected so far (terminal after RunTrace); the metrics
  // library analyzes these.
  const std::vector<RequestPtr>& requests() const { return requests_; }

  // Worker-count history per module: (time, active workers), recorded at
  // each scaling epoch. Used by the cold-start analysis bench.
  using WorkerSample = FleetSample;
  const std::vector<WorkerSample>& worker_history() const { return worker_history_; }

  // --- Internal transitions (called by ModuleRuntime/Worker) --------------
  void OnModuleDone(RequestPtr req, int module_id);
  void Drop(RequestPtr req, int module_id, DropReason reason);
  RequestLifecycle& lifecycle() { return lifecycle_; }

  // The policy's decision view for the current sync interval (built by
  // SyncPolicyView at construction and every sync tick; a stalled sync keeps
  // the previous one). Workers and module controllers decide through it.
  const PolicyView& view() const { return *view_; }
  // DropPolicy::PurgeExpired, a fixed per-policy property.
  bool purge_expired() const { return purge_expired_; }
  // The admission stream for views that NeedsAdmissionRng() (pard-oc's
  // Bernoulli shed), forked from RuntimeOptions::seed; null otherwise.
  Rng* admission_rng() { return view_->NeedsAdmissionRng() ? &admission_rng_ : nullptr; }

  // Total successful re-enqueues after worker failures (resilience path).
  std::uint64_t retries() const { return lifecycle_.retries(); }

  // Observability (null when disabled via RuntimeOptions).
  TraceRecorder* trace() { return options_.trace; }
  MetricsRegistry* metrics() { return options_.metrics; }

  // Multi-tenant governor; null for untenanted runs (empty
  // RuntimeOptions::tenants — the bit-identical historical path).
  const TenantGovernor* governor() const { return lifecycle_.governor(); }

 private:
  void Inject();
  void SyncTick();
  void ScalingTick();
  void Deliver(RequestPtr req, int module_id);
  void Complete(RequestPtr req);

  PipelineSpec spec_;
  RuntimeOptions options_;
  DropPolicy* policy_;
  std::shared_ptr<const PolicyView> view_;
  bool purge_expired_ = true;
  Rng admission_rng_;
  Simulation sim_;
  StateBoard board_;
  RequestLifecycle lifecycle_;
  // Requests live until the analysis is done with them; the arena keeps them
  // (and their control blocks) in bump-allocated slabs, and allocator copies
  // inside the control blocks keep the arena alive past this runtime.
  std::shared_ptr<RequestArena> arena_ = std::make_shared<RequestArena>();
  std::vector<int> batch_sizes_;
  BackendFleet fleet_;
  std::vector<std::unique_ptr<ModuleRuntime>> modules_;
  std::vector<RequestPtr> requests_;
  std::vector<WorkerSample> worker_history_;
  SimTime last_arrival_ = 0;
  std::int64_t sync_count_ = 0;
  // Chaos stall-sync window: SyncTick keeps rescheduling but skips the
  // publish while now < stall_until_, so decisions read the previous view
  // exactly like serve readers see a stale snapshot.
  SimTime stall_until_ = 0;
};

}  // namespace pard

#endif  // PARD_RUNTIME_PIPELINE_RUNTIME_H_
