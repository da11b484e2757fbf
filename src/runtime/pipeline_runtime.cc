#include "runtime/pipeline_runtime.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "models/registry.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"
#include "resilience/chaos.h"
#include "runtime/batch_planner.h"

namespace pard {

PipelineRuntime::PipelineRuntime(const PipelineSpec& spec, const RuntimeOptions& options,
                                 DropPolicy* policy, double expected_rate)
    : spec_(spec),
      options_(options),
      policy_(policy),
      admission_rng_(Rng(options.seed).Fork("admission")),
      board_(spec.NumModules()),
      lifecycle_(&spec_, options_),
      batch_sizes_(PlanBatchSizes(spec)),
      fleet_(spec_, options_.cold_start, options_.cost_aware_provisioning) {
  PARD_CHECK(policy_ != nullptr);
  const std::vector<int> workers = PlanInitialWorkers(spec_, batch_sizes_, options_, expected_rate);
  policy_->Bind(&spec_, &board_);
  purge_expired_ = policy_->PurgeExpired();
  view_ = BuildPolicyView(*policy_, nullptr).view;
  for (const ModuleSpec& m : spec_.modules()) {
    modules_.push_back(std::make_unique<ModuleRuntime>(
        &sim_, this, &fleet_, m, ProfileRegistry::Get(m.model),
        batch_sizes_[static_cast<std::size_t>(m.id)], workers[static_cast<std::size_t>(m.id)],
        options_));
  }
  // Periodic control-plane ticks.
  sim_.ScheduleAfter(options_.sync_period, [this] { SyncTick(); });
  if (options_.enable_scaling) {
    sim_.ScheduleAfter(options_.scaling_epoch, [this] { ScalingTick(); });
  }
  // Deterministic kill/recover fleet schedule and chaos timeline, the same
  // ones the serving runtime applies from its control thread.
  for (const FleetEvent& event : lifecycle_.fault_schedule()) {
    sim_.ScheduleAt(event.at, [this, event] {
      ModuleRuntime& m = *modules_[static_cast<std::size_t>(event.module_id)];
      if (event.kind == FleetEvent::Kind::kKill) {
        m.FailWorkers(event.count);
      } else {
        m.AddWorkers(event.count);
      }
      lifecycle_.NoteFleetEvent(event);
    });
  }
  for (const ChaosEvent& event : lifecycle_.chaos_schedule()) {
    sim_.ScheduleAt(event.at, [this, event] {
      switch (event.kind) {
        case ChaosKind::kHang:
          modules_[static_cast<std::size_t>(event.module_id)]->HangWorkers(event.count,
                                                                           event.duration);
          break;
        case ChaosKind::kSlow:
          modules_[static_cast<std::size_t>(event.module_id)]->SetSlowdown(
              event.factor, event.at + event.duration);
          break;
        case ChaosKind::kStallSync:
          stall_until_ = std::max(stall_until_, event.at + event.duration);
          break;
      }
      lifecycle_.NoteChaosEvent(event);
    });
  }
}

ModuleRuntime& PipelineRuntime::module(int id) {
  PARD_CHECK(id >= 0 && id < static_cast<int>(modules_.size()));
  return *modules_[static_cast<std::size_t>(id)];
}

void PipelineRuntime::ScheduleArrival(SimTime t) {
  last_arrival_ = std::max(last_arrival_, t);
  sim_.ScheduleAt(t, [this] { Inject(); });
}

void PipelineRuntime::Inject() {
  RequestPtr req = std::allocate_shared<Request>(ArenaAllocator<Request>(arena_));
  const bool admitted = lifecycle_.Stamp(*req, sim_.Now());
  requests_.push_back(req);
  if (!admitted) {
    // Weighted ingress shed: recorded (conservation) but never delivered.
    Drop(std::move(req), spec_.SourceModule(), DropReason::kTenantShed);
    return;
  }
  Deliver(std::move(req), spec_.SourceModule());
}

void PipelineRuntime::Deliver(RequestPtr req, int module_id) {
  // Network hop between client/module and module.
  RequestPtr captured = std::move(req);
  sim_.ScheduleAfter(options_.network_delay, [this, captured, module_id]() mutable {
    if (lifecycle_.IsMerge(module_id) && !lifecycle_.CountMergeArrival(*captured, module_id)) {
      return;
    }
    modules_[static_cast<std::size_t>(module_id)]->Receive(std::move(captured));
  });
}

void PipelineRuntime::OnModuleDone(RequestPtr req, int module_id) {
  if (req->Terminal()) {
    return;  // Dropped on a parallel branch while this one executed.
  }
  if (!lifecycle_.Forward(*req, module_id, [&](int sub) { Deliver(req, sub); })) {
    Complete(std::move(req));
  }
}

void PipelineRuntime::Drop(RequestPtr req, int module_id, DropReason reason) {
  if (lifecycle_.Drop(*req, module_id, sim_.Now(), reason)) {
    lifecycle_.Account(*req);
  }
}

void PipelineRuntime::Complete(RequestPtr req) {
  if (lifecycle_.Complete(*req, sim_.Now())) {
    lifecycle_.Account(*req);
  }
}

void PipelineRuntime::SyncTick() {
  const SimTime now = sim_.Now();
  if (now < stall_until_) {
    // Chaos stall-sync: skip the publish entirely (board, policy and view
    // keep the previous epoch) but keep the tick alive so syncing resumes.
    if (now <= last_arrival_ + options_.drain) {
      sim_.ScheduleAfter(options_.sync_period, [this] { SyncTick(); });
    }
    return;
  }
  for (auto& m : modules_) {
    m->Sync(now, &board_);
  }
  view_ = SyncPolicyView(*policy_, now, nullptr).view;
  if (TenantGovernor* governor = lifecycle_.governor(); governor != nullptr) {
    // Recompute the weighted shed plan from the states just published —
    // same staleness as every other control-plane consumer.
    governor->ResyncFromBoard(board_);
  }
  ++sync_count_;
  if (options_.trace != nullptr) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kEpochSync;
    ev.module = -1;
    ev.ts = now;
    ev.arg0 = sync_count_;
    options_.trace->Emit(ev);
  }
  // Sim-mode metrics sampling happens here — at sim-event granularity on the
  // single simulator thread — so the exported series is a deterministic
  // function of the seed (no wall-clock sampler involved).
  if (options_.metrics != nullptr) {
    options_.metrics->GetGauge("control.sync_epoch")->Set(sync_count_);
    options_.metrics->Sample(now);
  }
  if (now <= last_arrival_ + options_.drain) {
    sim_.ScheduleAfter(options_.sync_period, [this] { SyncTick(); });
  }
}

void PipelineRuntime::ScalingTick() {
  const SimTime now = sim_.Now();
  WorkerSample sample;
  sample.t = now;
  for (auto& m : modules_) {
    const double target_units = lifecycle_.ScalingTarget(
        m->SmoothedInputRate(now), m->PerWorkerThroughput(), m->ProvisionedUnits());
    m->SetTargetUnits(target_units);
    sample.workers.push_back(m->ActiveWorkers());
  }
  worker_history_.push_back(std::move(sample));
  if (now <= last_arrival_ + options_.drain) {
    sim_.ScheduleAfter(options_.scaling_epoch, [this] { ScalingTick(); });
  }
}

void PipelineRuntime::Run(SimTime until) { sim_.Run(until); }

void PipelineRuntime::RunTrace(const std::vector<SimTime>& arrivals) {
  PARD_CHECK_MSG(std::is_sorted(arrivals.begin(), arrivals.end()),
                 "arrival timestamps must be sorted");
  for (SimTime t : arrivals) {
    ScheduleArrival(t);
  }
  sim_.Run();
  // Any request still in flight after the queues fully drain is abandoned
  // (can only happen via infrastructure corner cases).
  lifecycle_.AbandonInFlight(requests_, sim_.Now());
}

}  // namespace pard
