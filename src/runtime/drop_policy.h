// Drop-policy interface.
//
// A policy decides at three points, each stated once on its immutable
// PolicyView:
//   1. ShouldDrop()    — the Request Broker decision at batch-entry time t_b
//                        (Fig. 5), when t_e and d_k are known exactly.
//   2. ChoosePopSide() — which end of the per-worker DEPQ the broker
//                        consumes next (arrival order vs LBF vs HBF).
//   3. AdmitAtModule() — enqueue-time admission (used by the DAGOR-style
//                        overload-control baseline to shed at ingress).
// The decision inputs (L_sub, priority sides, split budgets, overload
// flags) move only at a State Planner sync — the paper's asynchronous-
// update model (§5.4). At every sync the policy reacts to the freshly
// published board (OnSync), refreshes its estimator (RefreshEstimates) and
// freezes the result into the next view (MakeView). SyncPolicyView writes
// that step once; the simulator and the serve control plane both decide
// through the view it returns until their next sync.
#ifndef PARD_RUNTIME_DROP_POLICY_H_
#define PARD_RUNTIME_DROP_POLICY_H_

#include <memory>
#include <string>

#include "common/time_types.h"
#include "pipeline/pipeline_spec.h"
#include "runtime/request.h"
#include "runtime/request_queue.h"
#include "runtime/state_board.h"

namespace pard {

class Rng;
class ThreadPool;

// What a policy's estimator refresh actually did (see
// DropPolicy::RefreshEstimates); surfaced as control.refresh_* metrics.
struct PolicyRefreshStats {
  int refreshed = 0;
  int skipped = 0;
};

// Everything the Request Broker knows when deciding on one request.
struct AdmissionContext {
  const Request* request = nullptr;
  int module_id = -1;
  SimTime now = 0;            // == t_b, the moment of the decision.
  SimTime batch_start = 0;    // Expected t_e of the batch being formed.
  Duration batch_duration = 0;  // d_k at the module's planned batch size.
  int batch_size = 1;
};

// Immutable decision snapshot of a policy, valid for one sync interval.
//
// The simulator reads the view from its single event loop; the serving
// control plane publishes it through an RCU-style snapshot cell and broker
// threads call its const methods with NO lock held. A view must therefore
// be self-contained: every decision input (estimates, budgets, priority
// sides, overload flags) is copied out of the policy at build time, and the
// const methods may not touch mutable policy or board state.
//
// Randomized admission (the DAGOR-style baseline's Bernoulli shed) cannot
// share one RNG lock-free, so a view declares NeedsAdmissionRng() and the
// caller hands AdmitAtModule() an RNG it holds exclusively: the simulator's
// own admission stream, or one of the control plane's striped shards.
class PolicyView {
 public:
  virtual ~PolicyView() = default;

  // Request Broker predicate: true = drop the request now (it never enters
  // the forming batch and consumes no GPU time at this module).
  virtual bool ShouldDrop(const AdmissionContext& ctx) const = 0;

  // Queue-order decision; fixed per module until the next sync.
  virtual PopSide ChoosePopSide(int module_id, SimTime now) const {
    (void)module_id;
    (void)now;
    return PopSide::kOldest;
  }

  // Enqueue-time admission; false = shed before queueing. `rng` is non-null
  // iff NeedsAdmissionRng(), and exclusively held for this call.
  virtual bool AdmitAtModule(const Request& request, int module_id, SimTime now,
                             Rng* rng) const {
    (void)request;
    (void)module_id;
    (void)now;
    (void)rng;
    return true;
  }

  virtual bool NeedsAdmissionRng() const { return false; }
};

class DropPolicy {
 public:
  virtual ~DropPolicy() = default;

  // Called once by the runtime before any traffic; gives the policy read
  // access to the pipeline structure and the shared state board.
  virtual void Bind(const PipelineSpec* spec, const StateBoard* board) {
    spec_ = spec;
    board_ = board;
  }

  // Retired decision entry points: every decision lives on the PolicyView
  // returned by MakeView(). No runtime calls these; their bodies fail a
  // check that says so. They remain only so that existing decorators which
  // forward them still compile.
  virtual bool ShouldDrop(const AdmissionContext& ctx);
  virtual PopSide ChoosePopSide(int module_id, SimTime now);
  virtual bool AdmitAtModule(const Request& request, int module_id, SimTime now);

  // Whether the broker may evict queued requests whose deadline has already
  // passed (they are unservable under any decision). Every dropping policy
  // wants this; the naive baseline — which never drops — returns false.
  virtual bool PurgeExpired() const { return true; }

  // Invoked right after every state-board sync.
  virtual void OnSync(SimTime now) { (void)now; }

  // Estimator refresh, invoked between OnSync() and MakeView() at every
  // sync and once before the first view. Policies with an epoch-cached
  // estimator refresh it incrementally here (PARD fans dirty-module work
  // across `pool`; nullptr = run inline) so the following MakeView() is
  // pure cache reads.
  virtual PolicyRefreshStats RefreshEstimates(ThreadPool* pool) {
    (void)pool;
    return {};
  }

  // Builds the immutable decision snapshot of this policy's current state
  // (see PolicyView). Must not return null.
  virtual std::shared_ptr<const PolicyView> MakeView() = 0;

  virtual std::string Name() const = 0;

 protected:
  const PipelineSpec* spec_ = nullptr;
  const StateBoard* board_ = nullptr;
};

// The view a substrate decides through until its next sync, plus what the
// estimator refresh that fed it did.
struct PolicyEpoch {
  std::shared_ptr<const PolicyView> view;
  PolicyRefreshStats refresh;
};

// The first view of a run, built once the policy is bound:
// RefreshEstimates(pool) then MakeView(). Fails a check if the view is null.
PolicyEpoch BuildPolicyView(DropPolicy& policy, ThreadPool* pool);

// The State Planner's per-sync step, shared by the simulator's SyncTick and
// ControlPlane::Sync: OnSync(now), then BuildPolicyView(policy, pool).
PolicyEpoch SyncPolicyView(DropPolicy& policy, SimTime now, ThreadPool* pool);

}  // namespace pard

#endif  // PARD_RUNTIME_DROP_POLICY_H_
