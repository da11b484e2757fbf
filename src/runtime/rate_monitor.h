// Per-second arrival binning shared by the simulated and serving module
// controllers.
//
// The State Planner derives three quantities from recent arrival counts over
// the stats window: the raw (last-bin) input rate, the window-smoothed rate,
// and the paper's burstiness measure eps = sum|T_in - T_mean| / sum T_in.
// Both ModuleRuntime (discrete-event) and ServeModule (wall-clock) feed the
// same arithmetic so the estimator sees identically-defined ModuleState
// inputs on either substrate.
//
// Concurrency: not synchronized; each owner guards it with its own lock
// (ServeModule) or event-loop serialization (ModuleRuntime).
#ifndef PARD_RUNTIME_RATE_MONITOR_H_
#define PARD_RUNTIME_RATE_MONITOR_H_

#include <deque>

#include "common/time_types.h"

namespace pard {

class RateMonitor {
 public:
  // `window` is the stats-window span the bins cover (> 0).
  explicit RateMonitor(Duration window);

  // Records one arrival at `now`.
  void Bump(SimTime now);

  // Most recent complete view: the last bin scaled by its coverage.
  double Raw(SimTime now);

  // Total in-window arrivals over the covered span (floored at 1 s so a
  // window's first moments are not over-extrapolated).
  double Smoothed(SimTime now);

  // eps = sum|count - mean| / sum count over the in-window bins that are
  // complete at `now`; 0 with < 2 such bins.
  double Burstiness(SimTime now);

  // Sums another monitor's bins into this one. Bins align on absolute
  // 1-second boundaries, so merging N per-shard monitors reproduces the
  // exact counts one monitor would have observed — ServeModule's snapshot
  // merges its queue shards' monitors through a scratch instance this way.
  // Both monitors should share the same window length.
  void Merge(const RateMonitor& other);

 private:
  void Evict(SimTime now);

  struct Bin {
    SimTime start;
    int count;
  };

  Duration window_;
  std::deque<Bin> bins_;
};

}  // namespace pard

#endif  // PARD_RUNTIME_RATE_MONITOR_H_
