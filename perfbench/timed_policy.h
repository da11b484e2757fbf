// Transparent timing decorator for a DropPolicy and the PolicyViews it
// publishes.
//
// TimedPolicy forwards every DropPolicy entry point to the wrapped policy
// and records, per entry point, how often it was called and how long the
// call took (steady_clock, summed). Views returned by MakeView() are wrapped
// in a TimedView that times PolicyView::ShouldDrop per call. Nothing else
// changes: the wrapped policy sees the same calls with the same arguments in
// the same order, so a simulator run with the decorator makes exactly the
// decisions it makes without it.
//
// Threading: the runtimes call DropPolicy methods from one thread at a time
// (the simulator's event loop, or the serve control thread / control lock),
// so the per-method tallies are plain fields. Views are read by many broker
// threads at once; their samples go through ViewStats' mutex.
#ifndef PERFBENCH_TIMED_POLICY_H_
#define PERFBENCH_TIMED_POLICY_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "runtime/drop_policy.h"

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct CallStats {
  std::uint64_t calls = 0;
  std::int64_t busy_ns = 0;

  void Add(std::int64_t start_ns) {
    ++calls;
    busy_ns += NowNs() - start_ns;
  }
  double BusySeconds() const { return static_cast<double>(busy_ns) * 1e-9; }
};

// Per-call durations of PolicyView::ShouldDrop, from any thread.
class ViewStats {
 public:
  void Record(std::int64_t ns) {
    std::lock_guard<std::mutex> lock(mu_);
    samples_ns_.push_back(ns);
  }
  // Call after every reader thread has joined.
  const std::vector<std::int64_t>& samples_ns() const { return samples_ns_; }

 private:
  std::mutex mu_;
  std::vector<std::int64_t> samples_ns_;
};

class TimedView final : public pard::PolicyView {
 public:
  TimedView(std::shared_ptr<const pard::PolicyView> inner, std::shared_ptr<ViewStats> stats)
      : inner_(std::move(inner)), stats_(std::move(stats)) {}

  bool ShouldDrop(const pard::AdmissionContext& ctx) const override {
    const std::int64_t start = NowNs();
    const bool drop = inner_->ShouldDrop(ctx);
    stats_->Record(NowNs() - start);
    return drop;
  }
  pard::PopSide ChoosePopSide(int module_id, pard::SimTime now) const override {
    return inner_->ChoosePopSide(module_id, now);
  }
  bool AdmitAtModule(const pard::Request& request, int module_id, pard::SimTime now,
                     pard::Rng* rng) const override {
    return inner_->AdmitAtModule(request, module_id, now, rng);
  }
  bool NeedsAdmissionRng() const override { return inner_->NeedsAdmissionRng(); }

 private:
  std::shared_ptr<const pard::PolicyView> inner_;
  std::shared_ptr<ViewStats> stats_;
};

class TimedPolicy final : public pard::DropPolicy {
 public:
  explicit TimedPolicy(std::unique_ptr<pard::DropPolicy> inner) : inner_(std::move(inner)) {}

  void Bind(const pard::PipelineSpec* spec, const pard::StateBoard* board) override {
    const std::int64_t start = NowNs();
    inner_->Bind(spec, board);
    bind_.Add(start);
  }
  bool ShouldDrop(const pard::AdmissionContext& ctx) override {
    const std::int64_t start = NowNs();
    const bool drop = inner_->ShouldDrop(ctx);
    should_drop_.Add(start);
    should_drop_drops_ += drop ? 1 : 0;
    return drop;
  }
  pard::PopSide ChoosePopSide(int module_id, pard::SimTime now) override {
    const std::int64_t start = NowNs();
    const pard::PopSide side = inner_->ChoosePopSide(module_id, now);
    pop_side_.Add(start);
    return side;
  }
  bool AdmitAtModule(const pard::Request& request, int module_id, pard::SimTime now) override {
    const std::int64_t start = NowNs();
    const bool admit = inner_->AdmitAtModule(request, module_id, now);
    admit_.Add(start);
    return admit;
  }
  bool PurgeExpired() const override { return inner_->PurgeExpired(); }
  void OnSync(pard::SimTime now) override {
    const std::int64_t start = NowNs();
    inner_->OnSync(now);
    on_sync_.Add(start);
  }
  pard::PolicyRefreshStats RefreshEstimates(pard::ThreadPool* pool) override {
    const std::int64_t start = NowNs();
    const pard::PolicyRefreshStats stats = inner_->RefreshEstimates(pool);
    refresh_.Add(start);
    modules_refreshed_ += static_cast<std::uint64_t>(stats.refreshed);
    modules_skipped_ += static_cast<std::uint64_t>(stats.skipped);
    return stats;
  }
  std::shared_ptr<const pard::PolicyView> MakeView() override {
    const std::int64_t start = NowNs();
    std::shared_ptr<const pard::PolicyView> view = inner_->MakeView();
    make_view_.Add(start);
    if (view == nullptr) {
      return nullptr;  // Keep the control plane's locked fallback as is.
    }
    return std::make_shared<TimedView>(std::move(view), view_stats_);
  }
  std::string Name() const override { return inner_->Name(); }

  const CallStats& bind() const { return bind_; }
  const CallStats& should_drop() const { return should_drop_; }
  std::uint64_t should_drop_drops() const { return should_drop_drops_; }
  const CallStats& pop_side() const { return pop_side_; }
  const CallStats& admit() const { return admit_; }
  const CallStats& on_sync() const { return on_sync_; }
  const CallStats& refresh() const { return refresh_; }
  std::uint64_t modules_refreshed() const { return modules_refreshed_; }
  std::uint64_t modules_skipped() const { return modules_skipped_; }
  const CallStats& make_view() const { return make_view_; }
  const ViewStats& view_stats() const { return *view_stats_; }

 private:
  std::unique_ptr<pard::DropPolicy> inner_;
  CallStats bind_;
  CallStats should_drop_;
  std::uint64_t should_drop_drops_ = 0;
  CallStats pop_side_;
  CallStats admit_;
  CallStats on_sync_;
  CallStats refresh_;
  std::uint64_t modules_refreshed_ = 0;
  std::uint64_t modules_skipped_ = 0;
  CallStats make_view_;
  std::shared_ptr<ViewStats> view_stats_ = std::make_shared<ViewStats>();
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_POLICY_H_
