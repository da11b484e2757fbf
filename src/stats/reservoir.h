// Recent-sample reservoir.
//
// The State Planner keeps the most recent M (default 10 000, paper footnote 6)
// batch-wait observations per module and randomly samples them to build the
// aggregated batch-wait distribution F_{k+1..N}. A ring buffer of the most
// recent M values implements "random sampling on recent arrivals" — it tracks
// workload drift instead of mixing in stale samples as a classic reservoir
// would.
//
// Sorted() publishes the same values in ascending order from a sorted mirror
// kept beside the ring. Add() only notes what changed: the new value sits in
// the ring, the value it overwrote goes to a pending-evictions list. The next
// Sorted() compacts the k evicted values out of the mirror in place (a
// multiset difference), sorts the k new ones behind what is kept and merges
// the two runs: O(M + k log k) instead of the O(M log M) full sort, with no
// second M-sized buffer kept between reads. When more than M values arrive
// between two reads, an evicted value may never have reached the mirror, so
// the mirror is rebuilt by one full sort instead.
//
// Both paths yield sort(values()) exactly. The values stored here are batch
// waits in whole microseconds, so values that compare equal are bitwise
// equal (no NaN, no -0.0) and any two sorts of one multiset give the
// identical vector. Callers index that vector by rank, so their draws do not
// depend on which path built it.
#ifndef PARD_STATS_RESERVOIR_H_
#define PARD_STATS_RESERVOIR_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace pard {

class RecentReservoir {
 public:
  explicit RecentReservoir(std::size_t capacity) : capacity_(capacity) {
    PARD_CHECK(capacity > 0);
    values_.reserve(capacity);
  }

  void Add(double v) {
    if (values_.size() < capacity_) {
      values_.push_back(v);
    } else {
      if (pending_ < capacity_) {
        evicted_.push_back(values_[next_]);
      }
      values_[next_] = v;
      next_ = (next_ + 1) % capacity_;
    }
    ++pending_;
  }

  std::size_t Size() const { return values_.size(); }
  bool Empty() const { return values_.empty(); }
  std::size_t capacity() const { return capacity_; }

  // Uniformly random element. Requires non-empty.
  double Sample(Rng& rng) const {
    PARD_CHECK(!values_.empty());
    return values_[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(values_.size()) - 1))];
  }

  // The values in ring-slot order, not arrival order.
  const std::vector<double>& values() const { return values_; }

  // The current values in ascending order (see the file comment).
  const std::vector<double>& Sorted() {
    if (pending_ > capacity_) {
      sorted_ = values_;
      std::sort(sorted_.begin(), sorted_.end());
    } else if (pending_ > 0) {
      MergePending();
    }
    pending_ = 0;
    evicted_.clear();
    return sorted_;
  }

  void Clear() {
    values_.clear();
    sorted_.clear();
    evicted_.clear();
    next_ = 0;
    pending_ = 0;
  }

 private:
  void MergePending() {
    // Multiset difference mirror \ evicted, in place. Every evicted value is
    // in the mirror, so entries below the smallest one stay where they are.
    std::size_t kept = sorted_.size();
    if (!evicted_.empty()) {
      std::sort(evicted_.begin(), evicted_.end());
      kept = static_cast<std::size_t>(
          std::lower_bound(sorted_.begin(), sorted_.end(), evicted_.front()) - sorted_.begin());
      std::size_t e = 0;
      for (std::size_t i = kept; i < sorted_.size(); ++i) {
        if (e < evicted_.size() && sorted_[i] == evicted_[e]) {
          ++e;
        } else {
          sorted_[kept++] = sorted_[i];
        }
      }
      PARD_CHECK(e == evicted_.size());
    }
    // The new values are the last pending_ ring writes, ending just before
    // next_ (or at the back while the ring is still filling). Sort them
    // behind the kept run and merge the two runs.
    const std::size_t end = values_.size() < capacity_ ? values_.size() : next_;
    sorted_.resize(kept + pending_);
    for (std::size_t i = 0; i < pending_; ++i) {
      sorted_[kept + i] = values_[(end + capacity_ - pending_ + i) % capacity_];
    }
    const auto mid = sorted_.begin() + static_cast<std::ptrdiff_t>(kept);
    std::sort(mid, sorted_.end());
    std::inplace_merge(sorted_.begin(), mid, sorted_.end());
  }

  std::size_t capacity_;
  std::size_t next_ = 0;
  std::vector<double> values_;
  // Sorted mirror of values_ as of the last Sorted(), and what changed since:
  // pending_ adds (the newest ring writes) and the values they overwrote
  // (recorded only while pending_ <= capacity_; past that Sorted() re-sorts).
  std::vector<double> sorted_;
  std::vector<double> evicted_;
  std::size_t pending_ = 0;
};

}  // namespace pard

#endif  // PARD_STATS_RESERVOIR_H_
