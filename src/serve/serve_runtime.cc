#include "serve/serve_runtime.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/lock_order.h"
#include "models/registry.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"
#include "runtime/batch_planner.h"

namespace pard {

namespace {

// Proportional scale-down of a worker plan to a total-thread cap. The
// max(1, ...) floor can leave the scaled sum above the cap (many light
// modules plus one heavy one), so trim the largest entries until the cap
// truly holds — the caller guarantees cap >= module count, so one worker
// per module always fits.
std::vector<int> CapTotalWorkers(std::vector<int> plan, int cap) {
  int total = 0;
  for (int w : plan) {
    total += w;
  }
  if (total <= cap) {
    return plan;
  }
  const double scale = static_cast<double>(cap) / static_cast<double>(total);
  total = 0;
  for (int& w : plan) {
    w = std::max(1, static_cast<int>(static_cast<double>(w) * scale));
    total += w;
  }
  while (total > cap) {
    auto largest = std::max_element(plan.begin(), plan.end());
    if (*largest <= 1) {
      break;  // Cannot trim below one worker per module.
    }
    --*largest;
    --total;
  }
  return plan;
}

ControlPlane::Options MakeControlOptions(const RuntimeOptions& options,
                                         const ServeOptions& serve) {
  ControlPlane::Options control;
  control.seed = options.seed;
  control.staleness_budget = options.resilience.staleness_budget;
  control.refresh_threads = serve.refresh_threads;
  return control;
}

}  // namespace

ServeRuntime::ServeRuntime(const PipelineSpec& spec, const RuntimeOptions& options,
                           DropPolicy* policy, double expected_rate, const ServeOptions& serve)
    : spec_(spec),
      options_(options),
      serve_(serve),
      clock_(serve.speedup),
      board_(spec.NumModules()),
      control_(&spec_, policy, &board_, MakeControlOptions(options, serve)),
      batch_sizes_(PlanBatchSizes(spec_)),
      fleet_(spec_, options.cold_start, options.cost_aware_provisioning),
      lifecycle_(&spec_, options_) {
  PARD_CHECK(serve_.max_total_threads >= spec_.NumModules());
  PARD_CHECK_MSG(serve_.broker_threads >= 1, "broker_threads must be >= 1");
  worker_plan_ = CapTotalWorkers(PlanInitialWorkers(spec_, batch_sizes_, options_, expected_rate),
                                 serve_.max_total_threads);
  for (const ModuleSpec& m : spec_.modules()) {
    const ModelProfile& profile = ProfileRegistry::Get(m.model);
    planned_batch_duration_.push_back(
        profile.BatchDuration(batch_sizes_[static_cast<std::size_t>(m.id)]));
    modules_.push_back(std::make_unique<ServeModule>(
        this, &fleet_, m, profile, batch_sizes_[static_cast<std::size_t>(m.id)],
        worker_plan_[static_cast<std::size_t>(m.id)], options_));
  }
  if (options_.metrics != nullptr) {
    watchdog_counter_ = options_.metrics->GetCounter("resilience.watchdog_kills");
    // Control-sync tail: wall-clock Sync() cost per epoch. 0..20 ms in
    // 0.5 ms buckets comfortably brackets both the incremental fast path
    // (tens of us) and a pathological full recompute.
    sync_duration_hist_ =
        options_.metrics->GetHistogram("control.sync_duration_us", 0.0, 20000.0, 40);
    refresh_refreshed_counter_ =
        options_.metrics->GetCounter("control.refresh_modules_refreshed");
    refresh_skipped_counter_ =
        options_.metrics->GetCounter("control.refresh_modules_skipped");
  }
}

bool ServeRuntime::IsTerminal(const Request& req) const {
  LockOrderGuard order(LockRank::kFate);
  std::lock_guard<std::mutex> lock(FateMutex(req));
  return req.Terminal();
}

void ServeRuntime::Inject() {
  // Open loop: the *actual* instant is the send time.
  const SimTime now = clock_.Now();
  RequestPtr req = std::make_shared<Request>();
  // No lock: the request log and the core's ingress state belong to this
  // (the load generator's) thread; identity fields are immutable once the
  // request is visible to any other thread (runtime/request.h).
  const bool admitted = lifecycle_.Stamp(*req, now);
  requests_.push_back(req);
  in_flight_.fetch_add(1, std::memory_order_release);
  if (!admitted) {
    // Weighted ingress shed: the request is recorded for conservation but
    // never reaches the broker backlog or any module queue.
    Drop(req, spec_.SourceModule(), now, DropReason::kTenantShed);
    return;
  }
  if (serve_.broker_threads > 1) {
    {
      std::lock_guard<std::mutex> lock(broker_mu_);
      broker_backlog_.push_back(std::move(req));
    }
    broker_ready_.notify_one();
  } else {
    Deliver(req, spec_.SourceModule(), now);
  }
}

void ServeRuntime::BrokerLoop() {
  for (;;) {
    RequestPtr req;
    {
      std::unique_lock<std::mutex> lock(broker_mu_);
      broker_ready_.wait(lock,
                         [this] { return broker_stop_ || !broker_backlog_.empty(); });
      if (broker_backlog_.empty()) {
        return;  // Stop requested and the backlog is drained (or discarded).
      }
      req = std::move(broker_backlog_.front());
      broker_backlog_.pop_front();
    }
    Deliver(req, spec_.SourceModule(), clock_.Now());
  }
}

void ServeRuntime::Deliver(const RequestPtr& req, int module_id, SimTime now) {
  if (lifecycle_.IsMerge(module_id)) {
    // The merge counter shares the request's fate stripe, so a sibling
    // branch's drop and this arrival serialize.
    LockOrderGuard order(LockRank::kFate);
    std::lock_guard<std::mutex> lock(FateMutex(*req));
    if (!lifecycle_.CountMergeArrival(*req, module_id)) {
      return;
    }
  }
  // Offered load is counted before admission (like the simulator's
  // bump-then-admit Receive), so shed traffic still drives load_factor.
  modules_[static_cast<std::size_t>(module_id)]->NoteOffered(now);
  if (!AdmitOnDelivery(req, module_id, now)) {
    return;
  }
  lifecycle_.NoteAdmitted(*req, module_id, now);
  modules_[static_cast<std::size_t>(module_id)]->Receive(req);
}

bool ServeRuntime::AdmitOnDelivery(const RequestPtr& req, int module_id, SimTime now) {
  // A request that cannot meet its SLO even if a worker picked it up right
  // now never consumes queue space or a broker slot later. Both predicates
  // read the control plane's published snapshot — no control lock here.
  HopRecord& hop = req->hops[static_cast<std::size_t>(module_id)];
  if (!control_.AdmitAtModule(*req, module_id, now)) {
    hop.arrive = now;
    Drop(req, module_id, now, DropReason::kProactiveAdmission);
    return false;
  }
  AdmissionContext ctx;
  ctx.request = req.get();
  ctx.module_id = module_id;
  ctx.now = now;
  ctx.batch_start = now;
  ctx.batch_duration = planned_batch_duration_[static_cast<std::size_t>(module_id)];
  ctx.batch_size = batch_sizes_[static_cast<std::size_t>(module_id)];
  if (control_.ShouldDrop(ctx)) {
    hop.arrive = now;
    hop.batch_entry = now;
    Drop(req, module_id, now, DropReason::kBrokerCandidate);
    return false;
  }
  return true;
}

void ServeRuntime::OnModuleDone(const RequestPtr& req, int module_id, SimTime now) {
  if (IsTerminal(*req)) {
    return;  // Dropped on a parallel branch while this one executed.
  }
  if (!lifecycle_.Forward(*req, module_id, [&](int sub) { Deliver(req, sub, now); })) {
    Complete(req, now);
  }
}

void ServeRuntime::Drop(const RequestPtr& req, int module_id, SimTime now,
                        DropReason reason) {
  {
    LockOrderGuard order(LockRank::kFate);
    std::lock_guard<std::mutex> lock(FateMutex(*req));
    if (!lifecycle_.Drop(*req, module_id, now, reason)) {
      return;
    }
    in_flight_.fetch_sub(1, std::memory_order_release);
  }
  // Accounting outside the fate stripe keeps the stripe's critical section
  // minimal, so the traced and untraced paths are contention-identical.
  lifecycle_.Account(*req);
}

void ServeRuntime::RetryOrDrop(const RequestPtr& req, int module_id, SimTime now) {
  if (IsTerminal(*req)) {
    return;  // Resolved on another branch; nothing left to rescue.
  }
  const DropReason reason = lifecycle_.RetryVerdict(
      *req, now, planned_batch_duration_[static_cast<std::size_t>(module_id)]);
  if (reason != DropReason::kNone) {
    Drop(req, module_id, now, reason);
    return;
  }
  // Single writer of retry_count: the thread that owned the batch. Straight
  // back into the module's queue shards: admission already passed at
  // delivery, and re-running NoteOffered/merge bookkeeping would
  // double-count this request.
  lifecycle_.NoteRetry(*req, module_id, now);
  modules_[static_cast<std::size_t>(module_id)]->Receive(req);
}

void ServeRuntime::Complete(const RequestPtr& req, SimTime now) {
  {
    LockOrderGuard order(LockRank::kFate);
    std::lock_guard<std::mutex> lock(FateMutex(*req));
    if (!lifecycle_.Complete(*req, now)) {
      return;
    }
    in_flight_.fetch_sub(1, std::memory_order_release);
  }
  lifecycle_.Account(*req);
}

void ServeRuntime::ScalingTick(SimTime now) {
  FleetSample sample;
  sample.t = now;
  for (auto& module : modules_) {
    const double target_units =
        lifecycle_.ScalingTarget(module->SmoothedInputRate(now), module->PerWorkerThroughput(),
                                 fleet_.ProvisionedUnits(module->module_id()));
    // Real threads are capped fleet-wide; scale-ups spend the remaining
    // thread budget, scale-downs always apply.
    const int budget = serve_.max_total_threads - fleet_.TotalProvisioned();
    module->SetTargetUnits(target_units, now, std::max(0, budget));
    sample.workers.push_back(fleet_.ActiveCount(module->module_id()));
  }
  worker_history_.push_back(std::move(sample));
}

void ServeRuntime::ControlLoop() {
  SimTime next_sync = options_.sync_period;
  SimTime next_scale = options_.enable_scaling ? options_.scaling_epoch : -1;
  std::size_t next_fault = 0;
  std::size_t next_chaos = 0;
  // Watchdog cadence: a fraction of the hang budget, so a hang is detected
  // within budget + one sweep period (floored to keep the control thread
  // from spinning under a tiny budget).
  const Duration hang_budget = options_.resilience.hang_budget;
  const Duration watchdog_period =
      hang_budget > 0 ? std::max<Duration>(hang_budget / 4, 10 * kUsPerMs) : 0;
  SimTime next_watchdog = hang_budget > 0 ? watchdog_period : -1;
  // stall-sync chaos: sync epochs falling inside the stall window are
  // skipped, so the published snapshot ages exactly as a wedged sync thread
  // would leave it.
  SimTime sync_stalled_until = 0;
  const std::vector<FleetEvent>& fault_schedule = lifecycle_.fault_schedule();
  const std::vector<ChaosEvent>& chaos_schedule = lifecycle_.chaos_schedule();
  while (!stop_control_.load(std::memory_order_relaxed)) {
    SimTime wake = next_sync;
    if (next_scale >= 0) {
      wake = std::min(wake, next_scale);
    }
    if (next_fault < fault_schedule.size()) {
      wake = std::min(wake, fault_schedule[next_fault].at);
    }
    if (next_chaos < chaos_schedule.size()) {
      wake = std::min(wake, chaos_schedule[next_chaos].at);
    }
    if (next_watchdog >= 0) {
      wake = std::min(wake, next_watchdog);
    }
    clock_.SleepUntil(wake);
    if (stop_control_.load(std::memory_order_relaxed)) {
      return;
    }
    const SimTime now = clock_.Now();
    // Deterministic fault schedule first: kill/recover exactly as scheduled
    // (transitions are logged at the scheduled instant).
    while (next_fault < fault_schedule.size() && fault_schedule[next_fault].at <= now) {
      const FleetEvent& event = fault_schedule[next_fault++];
      ServeModule& module = *modules_[static_cast<std::size_t>(event.module_id)];
      if (event.kind == FleetEvent::Kind::kKill) {
        module.FailWorkers(event.count, event.at);
      } else {
        // Recovery spends the remaining thread budget like any scale-up —
        // a fault schedule cannot push past the fleet-wide thread cap.
        const int budget =
            std::max(0, serve_.max_total_threads - fleet_.TotalProvisioned());
        module.AddWorkers(std::min(event.count, budget), event.at);
      }
      lifecycle_.NoteFleetEvent(event);
    }
    // Chaos schedule: hang/slow land on the target module; stall-sync arms
    // the sync-skip window below.
    while (next_chaos < chaos_schedule.size() && chaos_schedule[next_chaos].at <= now) {
      const ChaosEvent& event = chaos_schedule[next_chaos++];
      switch (event.kind) {
        case ChaosKind::kHang:
          modules_[static_cast<std::size_t>(event.module_id)]->HangWorkers(
              event.count, event.duration, now);
          break;
        case ChaosKind::kSlow:
          modules_[static_cast<std::size_t>(event.module_id)]->SetSlowdown(
              event.factor, event.at + event.duration);
          break;
        case ChaosKind::kStallSync:
          sync_stalled_until = std::max(sync_stalled_until, event.at + event.duration);
          break;
      }
      lifecycle_.NoteChaosEvent(event);
    }
    // Watchdog: force-fail busy workers with stale heartbeats and provision
    // replacements from the remaining thread budget.
    if (next_watchdog >= 0 && now >= next_watchdog) {
      for (auto& module : modules_) {
        const int killed = module->WatchdogSweep(now, hang_budget);
        if (killed == 0) {
          continue;
        }
        watchdog_kills_.fetch_add(static_cast<std::uint64_t>(killed),
                                  std::memory_order_relaxed);
        if (watchdog_counter_ != nullptr) {
          watchdog_counter_->Add(killed);
        }
        const int budget =
            std::max(0, serve_.max_total_threads - fleet_.TotalProvisioned());
        module->AddWorkers(std::min(killed, budget), now);
        if (options_.trace != nullptr) {
          TraceEvent ev;
          ev.kind = TraceEventKind::kWatchdog;
          ev.module = module->module_id();
          ev.ts = now;
          ev.arg0 = killed;
          options_.trace->Emit(ev);
        }
      }
      next_watchdog = now + watchdog_period;
    }
    if (next_scale >= 0 && now >= next_scale) {
      ScalingTick(now);
      next_scale += options_.scaling_epoch;
    }
    if (now >= next_sync && now < sync_stalled_until) {
      // stall-sync chaos: skip this epoch; the snapshot published before the
      // stall keeps serving readers (and aging toward the staleness budget).
      next_sync += options_.sync_period;
    } else if (now >= next_sync) {
      std::vector<ModuleState> states;
      states.reserve(modules_.size());
      for (auto& module : modules_) {
        states.push_back(module->Snapshot(now));  // Shard locks, one at a time.
      }
      if (TenantGovernor* governor = lifecycle_.governor(); governor != nullptr) {
        // Weighted shed plan from the same states the brokers are about to
        // read — the governor is never fresher than the snapshot.
        governor->Resync(states);
      }
      // Publishes a fresh immutable snapshot for the brokers — entirely off
      // the control lock on the snapshot path. Timed in wall-clock terms:
      // sync cost is real CPU work, not virtual time.
      const auto sync_begin = std::chrono::steady_clock::now();
      const ControlPlane::SyncStats sync_stats = control_.Sync(std::move(states), now);
      const auto sync_wall_us = std::chrono::duration_cast<std::chrono::microseconds>(
                                    std::chrono::steady_clock::now() - sync_begin)
                                    .count();
      if (options_.trace != nullptr) {
        TraceEvent ev;
        ev.kind = TraceEventKind::kEpochSync;
        ev.module = -1;
        ev.ts = now;
        ev.arg0 = static_cast<std::int64_t>(control_.SnapshotEpoch());
        options_.trace->Emit(ev);
        TraceEvent refresh_ev;
        refresh_ev.kind = TraceEventKind::kControlRefresh;
        refresh_ev.module = -1;
        refresh_ev.ts = now;
        refresh_ev.dur = sync_wall_us;
        refresh_ev.arg0 = sync_stats.refreshed;
        refresh_ev.arg1 = sync_stats.skipped;
        options_.trace->Emit(refresh_ev);
      }
      if (sync_duration_hist_ != nullptr) {
        sync_duration_hist_->Observe(static_cast<double>(sync_wall_us));
        refresh_refreshed_counter_->Add(sync_stats.refreshed);
        refresh_skipped_counter_->Add(sync_stats.skipped);
      }
      if (options_.metrics != nullptr) {
        options_.metrics->GetGauge("control.snapshot_epoch")
            ->Set(static_cast<std::int64_t>(control_.SnapshotEpoch()));
        // How far behind schedule this sync ran (virtual us): the sampler's
        // view of control-plane health under load.
        options_.metrics->GetGauge("control.sync_lag_us")->Set(now - next_sync);
        options_.metrics->GetGauge("resilience.stale_fallbacks")
            ->Set(static_cast<std::int64_t>(control_.StaleFallbacks()));
      }
      next_sync += options_.sync_period;
    }
  }
}

void ServeRuntime::SamplerLoop() {
  SimTime next = options_.metrics_interval;
  while (!stop_sampler_.load(std::memory_order_relaxed)) {
    clock_.SleepUntil(next);
    if (stop_sampler_.load(std::memory_order_relaxed)) {
      return;
    }
    options_.metrics->Sample(clock_.Now());
    next += options_.metrics_interval;
  }
}

void ServeRuntime::Shutdown(bool abandon_backlog) {
  // Brokers go first: on a drained run their backlog is empty (a backlogged
  // request is non-terminal, so the drain loop would still be waiting); on
  // the abandon path the backlog is discarded — the conservation sweep
  // accounts those requests kLate.
  {
    std::lock_guard<std::mutex> lock(broker_mu_);
    broker_stop_ = true;
    if (abandon_backlog) {
      broker_backlog_.clear();
    }
  }
  broker_ready_.notify_all();
  broker_pool_.Join();
  // The sampler only reads the registry; stop it before the control thread
  // so its final sample still sees live gauges (bounded by one clock sleep).
  stop_sampler_.store(true, std::memory_order_relaxed);
  sampler_thread_.Join();
  // The control thread next: once it is joined, no scaling tick or fault
  // event can spawn a worker thread while the module groups join.
  stop_control_.store(true, std::memory_order_relaxed);
  control_thread_.Join();
  // Topo order: once module k's workers have joined, nothing can deliver to
  // k's successors, so each successor sees its final queue before its own
  // stop flag is observed with an empty queue. On the abandon path the
  // backlog is discarded instead of served; upstream joins first, so each
  // module re-discards at most the handful of batches its predecessors had
  // in flight.
  for (int id : spec_.TopoOrder()) {
    ServeModule& module = *modules_[static_cast<std::size_t>(id)];
    if (abandon_backlog) {
      module.Abort();
    } else {
      module.RequestStop();
    }
    module.Join();
    if (abandon_backlog) {
      module.Abort();  // Re-discard what upstream forwarded while joining.
    }
  }
}

void ServeRuntime::RunTrace(const std::vector<SimTime>& arrivals) {
  PARD_CHECK_MSG(!ran_, "ServeRuntime::RunTrace may run only once");
  ran_ = true;
  PARD_CHECK_MSG(std::is_sorted(arrivals.begin(), arrivals.end()),
                 "arrival timestamps must be sorted");

  clock_.Start();
  for (auto& module : modules_) {
    module->Start();
  }
  if (serve_.broker_threads > 1) {
    for (int i = 0; i < serve_.broker_threads; ++i) {
      broker_pool_.Spawn([this] { BrokerLoop(); });
    }
  }
  control_thread_.Spawn([this] { ControlLoop(); });
  if (options_.metrics != nullptr && options_.metrics_interval > 0) {
    sampler_thread_.Spawn([this] { SamplerLoop(); });
  }

  try {
    LoadGenerator generator(&clock_, arrivals, [this](SimTime) { Inject(); });
    generator.Start();
    generator.Join();

    // Drain: wait for in-flight requests to resolve, bounded by SLO + drain.
    const SimTime deadline = generator.LastArrival() + spec_.slo() + serve_.drain;
    bool drained = AllTerminal();
    while (!drained && clock_.Now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      drained = AllTerminal();
    }
    // Deadline hit with work still queued (e.g. a drop-free policy under
    // overload): abandon the backlog so the run actually ends here instead
    // of serving it out.
    Shutdown(/*abandon_backlog=*/!drained);
  } catch (...) {
    // A worker/injector exception must not leave sibling threads parked on
    // their condition variables (member destructors would join forever).
    // Module joins rethrow the FIRST worker error, which would mask the
    // in-flight one — so swallow secondary errors here and rethrow the
    // original.
    try {
      Shutdown(/*abandon_backlog=*/true);
    } catch (...) {
    }
    throw;
  }

  // Conservation: anything still in flight (wedged queue, drain timeout,
  // discarded broker backlog) is accounted as late rather than silently
  // vanishing. Every thread has joined; no lock needed.
  in_flight_.fetch_sub(lifecycle_.AbandonInFlight(requests_, clock_.Now()),
                       std::memory_order_release);
}

}  // namespace pard
