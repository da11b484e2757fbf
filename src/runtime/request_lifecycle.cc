#include "runtime/request_lifecycle.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"

namespace pard {

RequestLifecycle::RequestLifecycle(const PipelineSpec* spec, const RuntimeOptions& options)
    : spec_(spec),
      dynamic_paths_(options.dynamic_paths),
      provision_headroom_(options.provision_headroom),
      max_retries_(options.resilience.max_retries),
      trace_(options.trace),
      rng_(options.seed) {
  PARD_CHECK(spec_ != nullptr);
  const int n = spec_->NumModules();
  if (!options.tenants.empty()) {
    governor_ = std::make_unique<TenantGovernor>(options.tenants, options.seed);
  }
  // A typo'd module id must fail the run loudly, not silently no-op.
  for (const RuntimeOptions::FailureEvent& failure : options.failures) {
    PARD_CHECK_MSG(failure.module_id >= 0 && failure.module_id < n,
                   "failure event targets unknown module " << failure.module_id);
    fault_schedule_.push_back(
        FleetEvent{failure.at, failure.module_id, FleetEvent::Kind::kKill, failure.workers});
  }
  for (const FleetEvent& event : options.fleet_events) {
    PARD_CHECK_MSG(event.module_id >= 0 && event.module_id < n,
                   "fleet event targets unknown module " << event.module_id);
    PARD_CHECK(event.count >= 1);
    fault_schedule_.push_back(event);
  }
  std::stable_sort(fault_schedule_.begin(), fault_schedule_.end(),
                   [](const FleetEvent& a, const FleetEvent& b) { return a.at < b.at; });
  // Probabilistic chaos entries are expanded from the run seed up front, so
  // sim and serve apply an identical timeline.
  PARD_CHECK(max_retries_ >= 0);
  PARD_CHECK(options.resilience.hang_budget >= 0);
  chaos_schedule_ = ExpandChaosSchedule(options.resilience.chaos, options.seed);
  for (const ChaosEvent& event : chaos_schedule_) {
    PARD_CHECK_MSG(event.kind == ChaosKind::kStallSync ||
                       (event.module_id >= 0 && event.module_id < n),
                   "chaos event targets unknown module " << event.module_id);
  }
  if (MetricsRegistry* metrics = options.metrics; metrics != nullptr) {
    completed_counter_ = metrics->GetCounter("fate.completed");
    for (int r = 1; r < kNumDropReasons; ++r) {
      drop_reason_counters_[r] = metrics->GetCounter(
          std::string("fate.dropped.") + DropReasonName(static_cast<DropReason>(r)));
    }
    retry_counter_ = metrics->GetCounter("resilience.retries");
    for (int m = 0; m < n; ++m) {
      admitted_counters_.push_back(
          metrics->GetCounter("module.m" + std::to_string(m) + ".admitted"));
    }
    if (governor_ != nullptr) {
      for (const TenantSpec& tenant : options.tenants) {
        tenant_completed_.push_back(metrics->GetCounter("tenant." + tenant.name + ".completed"));
        tenant_dropped_.push_back(metrics->GetCounter("tenant." + tenant.name + ".dropped"));
      }
    }
  }
}

bool RequestLifecycle::Stamp(Request& req, SimTime now) {
  req.id = next_request_id_++;
  req.sent = now;
  req.slo = spec_->slo();
  if (governor_ != nullptr) {
    // Tenant identity is a pure hash of the request id — no RNG draw, so
    // arrivals and every downstream stream match the untenanted run.
    req.tenant = governor_->TenantOf(req.id);
    const TenantSpec& tenant = governor_->Tenant(req.tenant);
    req.weight = tenant.weight;
    req.slo =
        static_cast<Duration>(std::llround(static_cast<double>(req.slo) * tenant.slo_scale));
  }
  req.deadline = req.sent + req.slo;
  req.hops.resize(static_cast<std::size_t>(spec_->NumModules()));
  req.merge_arrivals.assign(static_cast<std::size_t>(spec_->NumModules()), 0);
  if (dynamic_paths_) {
    AssignDynamicPath(req);
  }
  return governor_ == nullptr || governor_->AdmitAtIngress(req.id, req.tenant);
}

void RequestLifecycle::AssignDynamicPath(Request& req) {
  const int n = spec_->NumModules();
  req.branch_choice.assign(static_cast<std::size_t>(n), -1);
  req.expected_arrivals.assign(static_cast<std::size_t>(n), 0);
  // Draw the branch taken at every fork, then propagate reachability so each
  // merge knows how many deliveries to expect for this request.
  std::vector<bool> active(static_cast<std::size_t>(n), false);
  active[static_cast<std::size_t>(spec_->SourceModule())] = true;
  for (int id : spec_->TopoOrder()) {
    if (!active[static_cast<std::size_t>(id)]) {
      continue;
    }
    const ModuleSpec& m = spec_->Module(id);
    if (m.subs.size() > 1) {
      const int pick = static_cast<int>(
          rng_.UniformInt(0, static_cast<std::int64_t>(m.subs.size()) - 1));
      const int chosen = m.subs[static_cast<std::size_t>(pick)];
      req.branch_choice[static_cast<std::size_t>(id)] = chosen;
      active[static_cast<std::size_t>(chosen)] = true;
      ++req.expected_arrivals[static_cast<std::size_t>(chosen)];
    } else {
      for (int s : m.subs) {
        active[static_cast<std::size_t>(s)] = true;
        ++req.expected_arrivals[static_cast<std::size_t>(s)];
      }
    }
  }
}

bool RequestLifecycle::CountMergeArrival(Request& req, int module_id) const {
  const std::size_t m = static_cast<std::size_t>(module_id);
  const int arrived = ++req.merge_arrivals[m];
  if (req.Terminal()) {
    return false;  // A sibling branch was dropped; nothing to merge.
  }
  const int expected = req.HasDynamicPath()
                           ? req.expected_arrivals[m]
                           : static_cast<int>(spec_->Module(module_id).pres.size());
  return arrived >= expected;
}

void RequestLifecycle::NoteAdmitted(const Request& req, int module_id, SimTime now) const {
  if (!admitted_counters_.empty()) {
    admitted_counters_[static_cast<std::size_t>(module_id)]->Add();
  }
  if (trace_ != nullptr) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kAdmit;
    ev.module = module_id;
    ev.request_id = req.id;
    ev.ts = now;
    trace_->EmitSampled(ev);
  }
}

bool RequestLifecycle::Drop(Request& req, int module_id, SimTime now, DropReason reason) const {
  if (req.Terminal()) {
    return false;
  }
  req.fate = RequestFate::kDropped;
  req.drop_module = module_id;
  req.finish = now;
  req.drop_reason = reason;
  return true;
}

bool RequestLifecycle::Complete(Request& req, SimTime now) const {
  if (req.Terminal()) {
    return false;
  }
  req.finish = now;
  req.fate = now <= req.deadline ? RequestFate::kCompleted : RequestFate::kLate;
  if (req.fate == RequestFate::kLate) {
    req.drop_reason = DropReason::kSloLate;
  }
  return true;
}

void RequestLifecycle::Count(const Request& req) const {
  Counter* fate = req.Good() ? completed_counter_
                             : drop_reason_counters_[static_cast<int>(req.drop_reason)];
  if (fate != nullptr) {
    fate->Add();
  }
  if (req.tenant >= 0 && !tenant_completed_.empty()) {
    (req.Good() ? tenant_completed_ : tenant_dropped_)[static_cast<std::size_t>(req.tenant)]
        ->Add();
  }
}

void RequestLifecycle::Account(const Request& req) const {
  Count(req);
  if (trace_ != nullptr) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kFate;
    ev.module = req.drop_module;  // -1 for completions.
    ev.request_id = req.id;
    ev.ts = req.finish;
    ev.arg0 = static_cast<std::int64_t>(req.fate);
    ev.arg1 = static_cast<std::int64_t>(req.drop_reason);
    trace_->EmitSampled(ev);
  }
}

std::size_t RequestLifecycle::AbandonInFlight(const std::vector<RequestPtr>& requests,
                                              SimTime now) const {
  std::size_t abandoned = 0;
  for (const RequestPtr& req : requests) {
    if (!req->Terminal()) {
      req->fate = RequestFate::kLate;
      req->finish = now;
      req->drop_reason = DropReason::kDrainAbandoned;
      Count(*req);
      ++abandoned;
    }
  }
  return abandoned;
}

DropReason RequestLifecycle::RetryVerdict(const Request& req, SimTime now,
                                          Duration stage_duration) const {
  if (max_retries_ == 0) {
    return DropReason::kWorkerFailure;
  }
  if (req.retry_count >= max_retries_) {
    return DropReason::kRetryExhausted;
  }
  // Deadline-aware: re-enqueue only when the remaining budget could still
  // cover this stage's batch duration — a request that cannot finish even
  // if picked up immediately is dead capacity.
  return req.RemainingBudget(now) > stage_duration ? DropReason::kNone
                                                   : DropReason::kWorkerFailure;
}

void RequestLifecycle::NoteRetry(Request& req, int module_id, SimTime now) {
  ++req.retry_count;
  retries_.fetch_add(1, std::memory_order_relaxed);
  if (retry_counter_ != nullptr) {
    retry_counter_->Add();
  }
  if (trace_ != nullptr) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kRetry;
    ev.module = module_id;
    ev.request_id = req.id;
    ev.ts = now;
    ev.arg0 = req.retry_count;
    trace_->EmitSampled(ev);
  }
}

double RequestLifecycle::ScalingTarget(double rate, double per_worker,
                                       double provisioned_units) const {
  // Target capacity in baseline-worker units: heterogeneous fleets keep
  // provisioning until Σ speed covers the demand, which for a homogeneous
  // grade-1.0 fleet lands on exactly the historical ceil() worker count.
  if (rate > 0.0 && per_worker > 0.0) {
    return rate * provision_headroom_ / per_worker;
  }
  return provisioned_units;
}

void RequestLifecycle::NoteFleetEvent(const FleetEvent& event) const {
  if (trace_ != nullptr) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kFleet;
    ev.module = event.module_id;
    ev.ts = event.at;
    ev.arg0 = event.kind == FleetEvent::Kind::kKill ? 0 : 1;
    ev.arg1 = event.count;
    trace_->Emit(ev);
  }
}

void RequestLifecycle::NoteChaosEvent(const ChaosEvent& event) const {
  if (trace_ != nullptr) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kChaos;
    ev.module = event.module_id;
    ev.ts = event.at;
    ev.arg0 = static_cast<std::int64_t>(event.kind);
    ev.arg1 = event.kind == ChaosKind::kHang ? event.count
                                             : static_cast<std::int64_t>(event.duration);
    trace_->Emit(ev);
  }
}

}  // namespace pard
