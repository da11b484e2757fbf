// The serve-side control plane: lock-free broker reads over RCU snapshots.
//
// Many broker threads (module workers forming batches plus ingress
// admission threads) decide concurrently, while the policy, its estimator
// and the StateBoard are not internally synchronized. The control plane
// splits the problem by write frequency:
//
//   READ PATH (hot, every request): ShouldDrop / ChoosePopSide /
//   AdmitAtModule pin the current ControlSnapshot through an epoch-based
//   SnapshotCell (runtime/snapshot.h) — one CAS, no mutex — and decide
//   against the policy's immutable PolicyView. Decisions within one pin are
//   mutually consistent: they all see the same sync's state.
//
//   WRITE PATH (cold, once per sync period): Sync() publishes the module
//   states to the StateBoard, runs the State Planner step the simulator
//   also runs (SyncPolicyView: OnSync, the incremental estimator refresh —
//   optionally fanned across the refresh pool — and MakeView), builds the
//   next ControlSnapshot and publishes it with one SnapshotCell store. No
//   broker ever touches the board or the policy, and Sync has exactly one
//   caller (the control thread), so the whole write path runs without a
//   mutex and a slow refresh never stalls a broker decision. Retired
//   snapshots are reclaimed once no reader pins them.
//
//   SHARDED RESIDUE: policies whose admission needs randomness (the DAGOR
//   baseline's Bernoulli shed) draw from per-shard RNGs behind striped
//   mutexes picked by request id, so admission entropy scales with shards
//   instead of serializing globally.
//
// Every policy must return a view: a null view fails a check at
// construction (BuildPolicyView).
//
// Lock ordering (enforced in debug builds by common/lock_order.h): a worker
// may take an admission-shard mutex while holding its module's queue-shard
// lock, never the reverse. TSan-cleanliness of the serve suite pins the
// whole contract.
#ifndef PARD_SERVE_CONTROL_PLANE_H_
#define PARD_SERVE_CONTROL_PLANE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/rng.h"
#include "runtime/drop_policy.h"
#include "runtime/snapshot.h"
#include "runtime/state_board.h"

namespace pard {

class ThreadPool;

// One sync interval's frozen control state: the board states as published,
// and the policy's immutable decision view.
struct ControlSnapshot {
  std::uint64_t board_version = 0;
  // Virtual time at which Sync() published this snapshot (0 for the initial
  // snapshot). Lock-free readers compare it against the staleness budget to
  // detect a dead/stalled sync thread.
  SimTime published_at = 0;
  // Scalar module states only: the wait reservoirs (up to 10k doubles per
  // module) are estimator inputs consumed during Sync() and never read from
  // a snapshot, so BuildSnapshot strips them instead of copying ~1 MB per
  // sync interval.
  std::vector<ModuleState> states;
  std::shared_ptr<const PolicyView> view;
};

class ControlPlane {
 public:
  struct Options {
    // Seeds the per-shard admission RNG forks.
    std::uint64_t seed = 1234;
    // Graceful degradation: when > 0 and the pinned snapshot's published_at
    // is older than this, broker decisions fall back to a conservative
    // static rule instead of trusting a stale estimator (see the reader
    // implementations for the exact rules). 0 disables the check.
    Duration staleness_budget = 0;
    // Threads for the policy's incremental estimator refresh during Sync()
    // (per-module forked RNG streams keep the result identical at any
    // thread count). 0 = one per hardware thread (ThreadPool::ResolveJobs);
    // 1 = run the refresh inline on the control thread, with no pool.
    int refresh_threads = 0;
  };

  // Striped admission-RNG shards for randomized admission policies.
  static constexpr int kAdmissionShards = 8;

  // `policy` and `board` must outlive the control plane. Binds the policy to
  // the spec/board like PipelineRuntime does, and publishes the initial
  // snapshot so readers never see an empty cell.
  ControlPlane(const PipelineSpec* spec, DropPolicy* policy, StateBoard* board,
               Options options);
  // Default options (no default argument: Options' member initializers are
  // not usable until the enclosing class is complete).
  ControlPlane(const PipelineSpec* spec, DropPolicy* policy, StateBoard* board);
  ~ControlPlane();

  // --- Request Broker decisions (lock-free snapshot reads) ----------------
  bool ShouldDrop(const AdmissionContext& ctx);
  PopSide ChoosePopSide(int module_id, SimTime now);
  bool AdmitAtModule(const Request& request, int module_id, SimTime now);
  // Lock-free: a fixed per-policy property, cached at construction so every
  // batch formation does not pin a snapshot just to re-read it.
  bool PurgeExpired() const { return purge_expired_; }

  // State sync: publishes every module state, runs the policy's sync step,
  // then swaps in the next snapshot. Single caller only — the control
  // thread owns both the board and the snapshot cell's writer side.
  struct SyncStats {
    int refreshed = 0;   // estimator cache entries recomputed
    int skipped = 0;     // estimator cache entries reused unchanged
  };
  SyncStats Sync(std::vector<ModuleState> states, SimTime now);

  // Snapshot epochs are monotone: 1 at construction, +1 per Sync.
  std::uint64_t SnapshotEpoch() const { return snapshot_.Epoch(); }
  // Broker decisions answered by the conservative static fallback because
  // the pinned snapshot exceeded the staleness budget.
  std::uint64_t StaleFallbacks() const {
    return stale_fallbacks_.load(std::memory_order_relaxed);
  }

 private:
  struct alignas(64) AdmissionShard {
    std::mutex mu;
    Rng rng{1};
  };

  // Builds the snapshot for the current board state around `view`, stamped
  // with the publish time. Caller is the control thread, where the board
  // has no other readers or writers.
  std::unique_ptr<const ControlSnapshot> BuildSnapshot(SimTime now,
                                                       std::shared_ptr<const PolicyView> view);
  // True when the staleness budget is enabled and `snap` is too old at
  // `now`; counts the fallback.
  bool Stale(const ControlSnapshot& snap, SimTime now);
  AdmissionShard& ShardFor(const Request& request) {
    return shards_[static_cast<std::size_t>(request.id) % shards_.size()];
  }

  DropPolicy* policy_;
  StateBoard* board_;
  bool purge_expired_ = false;
  Duration staleness_budget_ = 0;
  std::atomic<std::uint64_t> stale_fallbacks_{0};
  std::array<AdmissionShard, kAdmissionShards> shards_;
  // Workers for the policy's incremental estimator refresh; null when the
  // refresh runs inline on the control thread. Owned here so the pool
  // outlives every Sync.
  std::unique_ptr<ThreadPool> refresh_pool_;
  SnapshotCell<ControlSnapshot> snapshot_;
};

}  // namespace pard

#endif  // PARD_SERVE_CONTROL_PLANE_H_
