#include "runtime/rate_monitor.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace pard {

RateMonitor::RateMonitor(Duration window) : window_(window) { PARD_CHECK(window > 0); }

void RateMonitor::Bump(SimTime now) {
  Evict(now);
  const SimTime bin_start = (now / kUsPerSec) * kUsPerSec;
  if (bins_.empty() || bins_.back().start != bin_start) {
    bins_.push_back(Bin{bin_start, 0});
  }
  ++bins_.back().count;
}

void RateMonitor::Merge(const RateMonitor& other) {
  std::deque<Bin> merged;
  std::size_t a = 0;
  std::size_t b = 0;
  while (a < bins_.size() || b < other.bins_.size()) {
    if (b >= other.bins_.size() ||
        (a < bins_.size() && bins_[a].start < other.bins_[b].start)) {
      merged.push_back(bins_[a++]);
    } else if (a >= bins_.size() || other.bins_[b].start < bins_[a].start) {
      merged.push_back(other.bins_[b++]);
    } else {
      merged.push_back(Bin{bins_[a].start, bins_[a].count + other.bins_[b].count});
      ++a;
      ++b;
    }
  }
  bins_ = std::move(merged);
}

void RateMonitor::Evict(SimTime now) {
  const SimTime horizon = now - window_;
  while (!bins_.empty() && bins_.front().start + kUsPerSec <= horizon) {
    bins_.pop_front();
  }
}

double RateMonitor::Raw(SimTime now) {
  Evict(now);
  if (bins_.empty()) {
    return 0.0;
  }
  const Bin& last = bins_.back();
  const double coverage = std::clamp(UsToSec(now - last.start), 0.1, 1.0);
  return static_cast<double>(last.count) / coverage;
}

double RateMonitor::Smoothed(SimTime now) {
  Evict(now);
  if (bins_.empty()) {
    return 0.0;
  }
  int total = 0;
  for (const Bin& b : bins_) {
    total += b.count;
  }
  // Floor the clamp bounds so a sub-second stats window cannot invert them
  // (std::clamp with lo > hi is UB).
  const double window_s = std::max(1.0, UsToSec(window_));
  const double covered = std::clamp(UsToSec(now - bins_.front().start), 1.0, window_s);
  return static_cast<double>(total) / covered;
}

double RateMonitor::Burstiness(SimTime now) {
  Evict(now);
  // Only complete one-second bins are comparable observations. The bin still
  // filling at `now` holds a fraction of a second's arrivals; counting it as
  // a full second inflates eps at every sync that lands just past a second
  // boundary (every serve sync does), which widens the adaptive-priority band
  // and can hold an overloaded module in LBF.
  std::size_t complete = 0;
  double sum = 0.0;
  for (const Bin& b : bins_) {
    if (b.start + kUsPerSec > now) {
      break;
    }
    sum += static_cast<double>(b.count);
    ++complete;
  }
  if (complete < 2 || sum <= 0.0) {
    return 0.0;
  }
  const double mean = sum / static_cast<double>(complete);
  double dev = 0.0;
  for (std::size_t i = 0; i < complete; ++i) {
    dev += std::abs(static_cast<double>(bins_[i].count) - mean);
  }
  return dev / sum;
}

}  // namespace pard
