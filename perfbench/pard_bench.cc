// End-to-end benchmark binary (see perfbench/README.md).
//
// Runs one workload in this process, repeating it until the time budget is
// spent, checks every request record, and prints one JSON report line on
// stdout that perfbench/run.py turns into the benchmark result:
//
//   pard_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              --out-dir <dir>
//
// --trace 0 measures the end-to-end metrics with nothing added to the
// program. --trace 1 alternates untraced repetitions with repetitions whose
// policy is wrapped in TimedPolicy (timed_policy.h), and reports the
// per-layer metrics plus the cost of that timing. The benchmark seed only
// draws arrival instants; the trace shape and the program's own seeds are
// fixed, so one seed always yields one input and the simulator replays it
// bit for bit.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "baselines/policy_factory.h"
#include "jsonio/json.h"
#include "metrics/analysis.h"
#include "models/registry.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"
#include "pipeline/apps.h"
#include "runtime/pipeline_runtime.h"
#include "serve/serve_runtime.h"
#include "trace/arrival_generator.h"
#include "trace/traces.h"
#include "timed_policy.h"

namespace {

using pard::Duration;
using pard::RequestPtr;
using pard::SimTime;

struct Workload {
  const char* name;
  const char* app;
  const char* trace;
  const char* policy;
  double duration_s;  // Trace length, virtual seconds.
  double base_rate;   // Trace base rate, req/s.
  double provision;   // Capacity headroom over the trace's mean rate.
  bool obs;           // TraceRecorder at kObsSampleRate + MetricsRegistry, exported.
  bool serve;         // ServeRuntime (threads, wall clock) instead of the simulator.
  double speedup;     // Serve only: virtual seconds per wall second.
  // Simulator only: distinct arrival streams a run covers before it may
  // stop; repetition i replays stream i % input_sets, so every stream after
  // the first pass is a bit-exact repeat. Serve draws a fresh stream for
  // every repetition.
  int input_sets;
};

// Loads are chosen so that each outcome is a steady share of many requests.
// `da` is provisioned at 0.7x so clipper++ drops in every wiki peak, not in
// a few rare ones. The serve trace is 40 s so that scaling cannot catch the
// tweet step: the run sits in PARD's drop-dominated burst regime, whose
// outcomes do not swing with the host's thread wake-up jitter (at 200 s per
// repetition the median p50 moved by 24-43% between runs on a 4-vCPU VM).
constexpr Workload kWorkloads[] = {
    {"sim_lv_azure_pard", "lv", "azure", "pard", 1000.0, 200.0, 1.25, false, false, 0.0, 4},
    {"sim_da_wiki_clipper_obs", "da", "wiki", "clipper++", 1000.0, 200.0, 0.7, true, false, 0.0,
     5},
    {"serve_tm_tweet_pard", "tm", "tweet", "pard", 40.0, 200.0, 1.25, false, true, 20.0, 0},
};

// Fixed trace shape (burst placement, noise) and program seed: the seed
// pardsim uses by default.
constexpr std::uint64_t kShapeSeed = 7;
constexpr std::uint64_t kProgramSeed = 7;
constexpr double kObsSampleRate = 0.01;
constexpr int kSetupOnlySamples = 8;

double WallS() {
  return static_cast<double>(perfbench::NowNs()) * 1e-9;
}

double ProcessCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Returns freed heap to the kernel and restarts the peak-RSS mark, so the
// next PeakRssMb() covers one repetition alone.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

// Peak resident set (VmHWM) since the last ResetPeakRss(), in MiB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // Reported in kB.
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

template <typename T, typename F>
double MedianOf(const std::vector<T>& items, F value) {
  std::vector<double> values;
  values.reserve(items.size());
  for (const T& item : items) {
    values.push_back(value(item));
  }
  return Median(std::move(values));
}

// Nearest-rank percentile, q in (0, 1]; reorders `values`.
template <typename T>
double Percentile(std::vector<T>& values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  const std::size_t idx = std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(idx),
                   values.end());
  return static_cast<double>(values[idx]);
}

struct Inputs {
  pard::PipelineSpec spec;
  std::vector<SimTime> arrivals;
  double mean_rate = 0.0;
};

// Arrival stream `input` of the benchmark seed, drawn from the fixed trace
// shape.
Inputs MakeInputs(const Workload& w, std::uint64_t seed, int input) {
  Inputs in;
  in.spec = pard::MakeApp(w.app);
  pard::TraceOptions options;
  options.duration_s = w.duration_s;
  options.base_rate = w.base_rate;
  options.seed = kShapeSeed;
  const pard::RateFunction rate = pard::MakeTrace(w.trace, options);
  const SimTime end = pard::SecToUs(w.duration_s);
  in.mean_rate = rate.MeanRate(0, end);
  pard::Rng rng =
      pard::Rng(seed).Fork(std::string("arrivals:") + w.trace + ":" + std::to_string(input));
  in.arrivals = pard::GenerateArrivals(rate, 0, end, rng);
  return in;
}

// What a run produced, compared exactly between runs of the simulator.
struct Outcome {
  std::size_t total = 0;
  std::size_t good = 0;
  std::size_t dropped = 0;  // Policy drops + late completions.
  std::size_t late = 0;
  std::vector<std::size_t> reasons;
  double goodput = 0.0;
  double wasted = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::size_t latency_samples = 0;
  std::uint64_t events = 0;

  bool operator==(const Outcome& o) const {
    return total == o.total && good == o.good && dropped == o.dropped && late == o.late &&
           reasons == o.reasons && goodput == o.goodput && wasted == o.wasted &&
           p50_ms == o.p50_ms && p99_ms == o.p99_ms && latency_samples == o.latency_samples &&
           events == o.events;
  }
};

using Layers = std::map<std::string, double>;

struct Rep {
  double setup_s = 0.0;
  double run_cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  std::uint64_t failed = 0;
  Outcome out;
  Layers layers;  // Filled on timed-policy repetitions only.
};

// Requests that break a record invariant: not terminal, an id that names no
// arrival, a drop without a reason (or a reason without a drop), a fate that
// disagrees with the deadline, or an executed hop whose times run backwards.
std::uint64_t CountFailedRequests(const std::vector<RequestPtr>& requests,
                                  std::size_t num_arrivals) {
  std::uint64_t failed = 0;
  for (const RequestPtr& r : requests) {
    bool ok = r->Terminal() && r->id >= 1 && r->id <= num_arrivals;
    ok = ok && r->CountsDropped() == (r->drop_reason != pard::DropReason::kNone);
    if (r->fate == pard::RequestFate::kCompleted) {
      ok = ok && r->finish <= r->deadline;
    }
    for (const pard::HopRecord& h : r->hops) {
      if (h.executed) {
        ok = ok && r->sent <= h.arrive && h.arrive <= h.batch_entry &&
             h.batch_entry <= h.exec_start && h.exec_start <= h.exec_end;
      }
    }
    failed += ok ? 0 : 1;
  }
  return failed;
}

// The run's outcome; a finished request's latency is timed from when it was
// due to be sent. Adds every record-invariant failure to *failed.
Outcome Summarize(const pard::RunAnalysis& analysis, const std::vector<SimTime>& arrivals,
                  std::uint64_t events, std::uint64_t* failed) {
  Outcome out;
  out.total = analysis.Total();
  out.good = analysis.GoodCount();
  out.dropped = analysis.DroppedCount();
  out.reasons = analysis.DropReasonCounts();
  out.goodput = analysis.NormalizedGoodput();
  out.wasted = analysis.InvalidRate();
  out.events = events;
  std::vector<Duration> latency;
  latency.reserve(out.total);
  for (const RequestPtr& r : analysis.requests()) {
    if (r->fate == pard::RequestFate::kLate) {
      ++out.late;
    }
    const bool finished = r->fate == pard::RequestFate::kCompleted ||
                          (r->fate == pard::RequestFate::kLate &&
                           r->drop_reason == pard::DropReason::kSloLate);
    if (finished && r->id >= 1 && r->id <= arrivals.size()) {
      latency.push_back(r->finish - arrivals[r->id - 1]);
    }
  }
  out.latency_samples = latency.size();
  out.p50_ms = Percentile(latency, 0.50) / 1e3;
  out.p99_ms = Percentile(latency, 0.99) / 1e3;

  // Conservation and attribution, counted as failed requests.
  std::size_t attributed = 0;
  for (std::size_t i = 1; i < out.reasons.size(); ++i) {
    attributed += out.reasons[i];
  }
  *failed += CountFailedRequests(analysis.requests(), arrivals.size());
  const auto gap = [](std::size_t a, std::size_t b) { return a > b ? a - b : b - a; };
  *failed += gap(out.good + out.dropped, out.total);
  *failed += gap(attributed, out.dropped);
  *failed += gap(out.total, arrivals.size());
  return out;
}

// Layer counts taken from the request and hop records.
void AddHopLayers(const pard::RunAnalysis& analysis, const Inputs& in, bool serve,
                  Layers* layers) {
  std::vector<Duration> queue;
  std::vector<Duration> wait;
  std::vector<Duration> exec;
  std::vector<Duration> overshoot;
  std::vector<Duration> lag;
  double batches = 0.0;
  std::unordered_set<std::uint64_t> seen_batches;
  const int source = in.spec.SourceModule();
  for (const RequestPtr& r : analysis.requests()) {
    for (std::size_t m = 0; m < r->hops.size(); ++m) {
      const pard::HopRecord& h = r->hops[m];
      if (serve && static_cast<int>(m) == source && h.Visited() && r->id >= 1 &&
          r->id <= in.arrivals.size()) {
        lag.push_back(h.arrive - in.arrivals[r->id - 1]);
      }
      if (!h.executed || h.gpu_time <= 0) {
        continue;
      }
      queue.push_back(h.QueueDelay());
      wait.push_back(h.BatchWait());
      exec.push_back(h.ExecDuration());
      // gpu_time is the batch duration split evenly over the batch.
      const double share = static_cast<double>(h.gpu_time) /
                           static_cast<double>(std::max<Duration>(h.ExecDuration(), 1));
      batches += share;
      if (serve) {
        const std::uint64_t key = (static_cast<std::uint64_t>(m) << 56) ^
                                  (static_cast<std::uint64_t>(h.exec_start) << 20) ^
                                  static_cast<std::uint64_t>(h.exec_end);
        if (seen_batches.insert(key).second) {
          const int size = std::max(1, static_cast<int>(std::lround(1.0 / share)));
          const pard::ModelProfile& profile =
              pard::ProfileRegistry::Get(in.spec.Module(static_cast<int>(m)).model);
          overshoot.push_back(h.ExecDuration() - profile.BatchDuration(size));
        }
      }
    }
  }
  Layers& l = *layers;
  l["runtime.batches"] = std::round(batches);
  l["runtime.mean_batch_size"] = batches > 0.0 ? static_cast<double>(exec.size()) / batches : 0.0;
  l["runtime.queue_delay_ms.p50"] = Percentile(queue, 0.50) / 1e3;
  l["runtime.queue_delay_ms.p99"] = Percentile(queue, 0.99) / 1e3;
  l["runtime.batch_wait_ms.p50"] = Percentile(wait, 0.50) / 1e3;
  l["runtime.batch_wait_ms.p99"] = Percentile(wait, 0.99) / 1e3;
  l["runtime.exec_ms.p50"] = Percentile(exec, 0.50) / 1e3;
  l["serve.exec_overshoot_ms.p50"] = Percentile(overshoot, 0.50) / 1e3;
  l["serve.exec_overshoot_ms.p99"] = Percentile(overshoot, 0.99) / 1e3;
  l["serve.ingress_lag_ms.p50"] = Percentile(lag, 0.50) / 1e3;
  l["serve.ingress_lag_ms.p99"] = Percentile(lag, 0.99) / 1e3;
  const std::vector<std::size_t> reasons = analysis.DropReasonCounts();
  for (int i = 0; i < pard::kNumDropReasons; ++i) {
    l[std::string("runtime.drops.") + pard::DropReasonName(static_cast<pard::DropReason>(i))] =
        static_cast<double>(reasons[static_cast<std::size_t>(i)]);
  }
}

void AddPolicyLayers(const perfbench::TimedPolicy& p, Layers* layers) {
  Layers& l = *layers;
  const perfbench::CallStats& sd = p.should_drop();
  l["policy.should_drop.calls"] = static_cast<double>(sd.calls);
  l["policy.should_drop.busy_s"] = sd.BusySeconds();
  l["policy.should_drop.drop_share"] =
      sd.calls == 0 ? 0.0 : static_cast<double>(p.should_drop_drops()) / static_cast<double>(sd.calls);
  l["policy.pop_side.busy_s"] = p.pop_side().BusySeconds();
  l["policy.admit.busy_s"] = p.admit().BusySeconds();
  l["policy.on_sync.busy_s"] = p.on_sync().BusySeconds();
  l["policy.refresh.busy_s"] = p.refresh().BusySeconds();
  l["policy.refresh.modules_refreshed"] = static_cast<double>(p.modules_refreshed());
  l["policy.refresh.modules_skipped"] = static_cast<double>(p.modules_skipped());
  l["policy.make_view.busy_s"] = p.make_view().BusySeconds();
  std::vector<std::int64_t> view_ns = p.view_stats().samples_ns();
  double view_busy_s = 0.0;
  for (std::int64_t ns : view_ns) {
    view_busy_s += static_cast<double>(ns) * 1e-9;
  }
  l["policy.view_should_drop.calls"] = static_cast<double>(view_ns.size());
  l["policy.view_should_drop_ns.p50"] = Percentile(view_ns, 0.50);
  l["policy.view_should_drop_ns.p99"] = Percentile(view_ns, 0.99);
  // Everything the policy layer spent, for the runtime's self time.
  l["policy.total_busy_s"] = sd.BusySeconds() + p.pop_side().BusySeconds() +
                             p.admit().BusySeconds() + p.on_sync().BusySeconds() +
                             p.refresh().BusySeconds() + p.make_view().BusySeconds() +
                             p.bind().BusySeconds() + view_busy_s;
}

struct RepMode {
  bool timed = false;  // Wrap the policy in TimedPolicy and collect layers.
  bool obs = false;    // Program observability on (TraceRecorder + MetricsRegistry).
};

// Everything a repetition builds before the run starts: the part setup_s
// times.
struct Setup {
  Inputs in;
  double generate_s = 0.0;
  double construct_s = 0.0;
  double setup_s = 0.0;
  double cpu_start = 0.0;  // Process CPU seconds just before construction.
  std::unique_ptr<pard::DropPolicy> policy;
  perfbench::TimedPolicy* timed = nullptr;  // Points into `policy` when timed.
  std::unique_ptr<pard::TraceRecorder> recorder;
  std::unique_ptr<pard::MetricsRegistry> registry;
  // Declared after what they borrow, so they are destroyed first.
  std::unique_ptr<pard::PipelineRuntime> sim;
  std::unique_ptr<pard::ServeRuntime> server;
};

class Bench {
 public:
  Bench(const Workload& w, std::uint64_t seed, std::string out_dir)
      : w_(w), seed_(seed), out_dir_(std::move(out_dir)) {}

  // Builds the inputs of arrival stream `input` and the runtime that will
  // serve them.
  std::unique_ptr<Setup> SetUp(RepMode mode, int input) const {
    auto s = std::make_unique<Setup>();
    const double t0 = WallS();
    s->in = MakeInputs(w_, seed_, input);
    const double generated = WallS();
    s->generate_s = generated - t0;

    pard::PolicyParams params;
    params.seed = kProgramSeed;
    s->policy = pard::MakePolicy(w_.policy, params);
    if (mode.timed) {
      auto wrapped = std::make_unique<perfbench::TimedPolicy>(std::move(s->policy));
      s->timed = wrapped.get();
      s->policy = std::move(wrapped);
    }
    pard::RuntimeOptions options;
    options.seed = kProgramSeed;
    options.provision_headroom = w_.provision;
    options.enable_scaling = true;
    if (mode.obs) {
      pard::TraceRecorder::Options trace_options;
      trace_options.sample_rate = kObsSampleRate;
      trace_options.seed = kProgramSeed;
      trace_options.ring_capacity = w_.serve ? std::size_t{1} << 16 : std::size_t{1} << 20;
      s->recorder = std::make_unique<pard::TraceRecorder>(trace_options);
      s->registry = std::make_unique<pard::MetricsRegistry>();
      options.trace = s->recorder.get();
      options.metrics = s->registry.get();
    }

    s->cpu_start = ProcessCpuS();
    const double construct0 = WallS();
    if (w_.serve) {
      pard::ServeOptions serve;
      serve.speedup = w_.speedup;
      s->server = std::make_unique<pard::ServeRuntime>(s->in.spec, options, s->policy.get(),
                                                       s->in.mean_rate, serve);
    } else {
      s->sim = std::make_unique<pard::PipelineRuntime>(s->in.spec, options, s->policy.get(),
                                                       s->in.mean_rate);
    }
    const double constructed = WallS();
    s->construct_s = constructed - construct0;
    s->setup_s = constructed - t0;
    return s;
  }

  Rep Run(RepMode mode, int input) const {
    ResetPeakRss();
    Rep rep;
    const std::unique_ptr<Setup> s = SetUp(mode, input);
    rep.setup_s = s->setup_s;
    if (s->server) {
      s->server->RunTrace(s->in.arrivals);
    } else {
      s->sim->RunTrace(s->in.arrivals);
    }
    const double export0 = WallS();
    std::uint64_t trace_bytes = 0;
    if (mode.obs) {
      const std::string trace_path = out_dir_ + "/trace.json";
      s->recorder->WriteChromeTrace(trace_path);
      s->registry->WriteJson(out_dir_ + "/metrics.json");
      trace_bytes = std::filesystem::file_size(trace_path);
    }
    const double export_s = WallS() - export0;
    rep.run_cpu_s = ProcessCpuS() - s->cpu_start;

    const std::uint64_t events = s->sim ? s->sim->sim().ExecutedEvents() : 0;
    const double analysis0 = WallS();
    const pard::RunAnalysis analysis(s->server ? s->server->requests() : s->sim->requests(),
                                     s->in.spec);
    rep.out = Summarize(analysis, s->in.arrivals, events, &rep.failed);
    const double analysis_s = WallS() - analysis0;
    rep.peak_rss_mb = PeakRssMb();
    std::fprintf(stderr,
                 "rep input %d timed %d obs %d: setup %.4f s, run cpu %.4f s, %zu requests, "
                 "goodput %.4f, wasted %.4f, p50 %.3f ms, p99 %.3f ms, peak rss %.1f MB\n",
                 input, mode.timed ? 1 : 0, mode.obs ? 1 : 0, rep.setup_s, rep.run_cpu_s,
                 rep.out.total, rep.out.goodput, rep.out.wasted, rep.out.p50_ms, rep.out.p99_ms,
                 rep.peak_rss_mb);

    if (s->timed != nullptr) {
      Layers& l = rep.layers;
      l["trace.arrivals"] = static_cast<double>(s->in.arrivals.size());
      l["trace.generate_s"] = s->generate_s;
      l["runtime.construct_s"] = s->construct_s;
      l["sim.events"] = static_cast<double>(events);
      l["sim.events_per_request"] =
          static_cast<double>(events) / static_cast<double>(s->in.arrivals.size());
      l["run_cpu_s"] = rep.run_cpu_s;
      l["serve.run_cpu_s"] = s->server ? rep.run_cpu_s : 0.0;
      l["serve.stale_fallbacks"] =
          s->server ? static_cast<double>(s->server->control().StaleFallbacks()) : 0.0;
      l["serve.snapshot_epochs"] =
          s->server ? static_cast<double>(s->server->control().SnapshotEpoch()) : 0.0;
      l["obs.export_s"] = mode.obs ? export_s : 0.0;
      l["obs.trace_bytes"] = static_cast<double>(trace_bytes);
      l["obs.dropped_events"] =
          mode.obs ? static_cast<double>(s->recorder->total_dropped_events()) : 0.0;
      l["metrics.analysis_s"] = analysis_s;
      AddHopLayers(analysis, s->in, w_.serve, &l);
      AddPolicyLayers(*s->timed, &l);
    }
    return rep;
  }

 private:
  const Workload& w_;
  const std::uint64_t seed_;
  const std::string out_dir_;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// The per-layer metrics, in report order, with their units.
const std::vector<std::pair<std::string, const char*>>& LayerUnits() {
  static const std::vector<std::pair<std::string, const char*>> units = [] {
    std::vector<std::pair<std::string, const char*>> u = {
        {"trace.arrivals", "count"},
        {"trace.generate_s", "s"},
        {"runtime.construct_s", "s"},
        {"sim.events", "count"},
        {"sim.events_per_request", "events/req"},
        {"runtime.self_cpu_s", "s"},
        {"runtime.batches", "count"},
        {"runtime.mean_batch_size", "req"},
        {"runtime.queue_delay_ms.p50", "ms"},
        {"runtime.queue_delay_ms.p99", "ms"},
        {"runtime.batch_wait_ms.p50", "ms"},
        {"runtime.batch_wait_ms.p99", "ms"},
        {"runtime.exec_ms.p50", "ms"},
    };
    for (int i = 0; i < pard::kNumDropReasons; ++i) {
      u.emplace_back(
          std::string("runtime.drops.") + pard::DropReasonName(static_cast<pard::DropReason>(i)),
          "count");
    }
    const std::vector<std::pair<std::string, const char*>> rest = {
        {"policy.should_drop.calls", "count"},
        {"policy.should_drop.busy_s", "s"},
        {"policy.should_drop.drop_share", "share"},
        {"policy.pop_side.busy_s", "s"},
        {"policy.admit.busy_s", "s"},
        {"policy.on_sync.busy_s", "s"},
        {"policy.refresh.busy_s", "s"},
        {"policy.refresh.modules_refreshed", "count"},
        {"policy.refresh.modules_skipped", "count"},
        {"policy.make_view.busy_s", "s"},
        {"policy.view_should_drop.calls", "count"},
        {"policy.view_should_drop_ns.p50", "ns"},
        {"policy.view_should_drop_ns.p99", "ns"},
        {"serve.exec_overshoot_ms.p50", "ms"},
        {"serve.exec_overshoot_ms.p99", "ms"},
        {"serve.ingress_lag_ms.p50", "ms"},
        {"serve.ingress_lag_ms.p99", "ms"},
        {"serve.run_cpu_s", "s"},
        {"serve.stale_fallbacks", "count"},
        {"serve.snapshot_epochs", "count"},
        {"obs.overhead_share", "share"},
        {"obs.export_s", "s"},
        {"obs.trace_bytes", "bytes"},
        {"obs.dropped_events", "count"},
        {"metrics.analysis_s", "s"},
        {"bench.trace_overhead_share", "share"},
    };
    u.insert(u.end(), rest.begin(), rest.end());
    return u;
  }();
  return units;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::stoull(value);
    } else if (key == "--seconds") {
      args->seconds = std::stod(value);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: pard_bench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "--out-dir <dir>\n");
    return 2;
  }
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) {
      found = &w;
    }
  }
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *found;
  Bench bench(w, args.seed, args.out_dir);

  const double start = WallS();
  // Set-up alone is short, so it is also sampled on its own a few times.
  std::vector<double> setup_samples;
  if (!args.trace) {
    for (int i = 0; i < kSetupOnlySamples; ++i) {
      const int input = w.serve ? i : i % w.input_sets;
      setup_samples.push_back(bench.SetUp({/*timed=*/false, w.obs}, input)->setup_s);
    }
  }

  // Groups of repetitions on one input: untraced, then with --trace 1 the
  // same input under TimedPolicy (and, for obs workloads, TimedPolicy with
  // obs off). Groups repeat until the next one would overrun the budget;
  // an untraced simulator run first covers every input set.
  std::vector<Rep> plain;
  std::vector<Rep> timed;
  std::vector<Rep> timed_no_obs;
  std::vector<Outcome> first_pass;  // Simulator: one outcome per input set.
  bool reps_agree = true;
  bool timed_transparent = true;
  bool obs_transparent = true;
  const int min_groups = args.trace || w.serve ? 1 : w.input_sets;
  double longest_group = 0.0;
  for (int group = 0;; ++group) {
    const double group_start = WallS();
    const int input = w.serve ? group : group % w.input_sets;
    plain.push_back(bench.Run({/*timed=*/false, w.obs}, input));
    if (!w.serve) {
      if (group < w.input_sets) {
        first_pass.push_back(plain.back().out);
      } else {
        reps_agree = reps_agree && plain.back().out == first_pass[static_cast<std::size_t>(input)];
      }
    }
    if (args.trace) {
      timed.push_back(bench.Run({/*timed=*/true, w.obs}, input));
      timed_transparent = timed_transparent && timed.back().out == plain.back().out;
      if (w.obs) {
        timed_no_obs.push_back(bench.Run({/*timed=*/true, /*obs=*/false}, input));
        obs_transparent = obs_transparent && timed_no_obs.back().out == plain.back().out;
      }
    }
    const double now = WallS();
    longest_group = std::max(longest_group, now - group_start);
    if (group + 1 >= min_groups && now - start + longest_group > args.seconds) {
      break;
    }
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t good = 0;
  std::uint64_t dropped = 0;
  std::uint64_t late = 0;
  for (const std::vector<Rep>* reps : {&plain, &timed, &timed_no_obs}) {
    for (const Rep& r : *reps) {
      attempted += r.out.total;
      failed += r.failed;
      good += r.out.good;
      dropped += r.out.dropped;
      late += r.out.late;
    }
  }
  std::map<std::string, bool> checks;
  checks["records_valid"] = failed == 0;
  if (!w.serve) {
    checks["sim_repeats_exactly"] = reps_agree;
    if (args.trace) {
      checks["timed_policy_transparent"] = timed_transparent;
    }
    if (args.trace && w.obs) {
      checks["obs_transparent"] = obs_transparent;
    }
  }
  bool correct = true;
  for (const auto& [name, ok] : checks) {
    correct = correct && ok;
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    // Outcomes: one per input (a simulator replay of an input is exact).
    std::vector<Outcome> outcomes = first_pass;
    if (w.serve) {
      for (const Rep& r : plain) {
        outcomes.push_back(r.out);
      }
    }
    for (const Rep& r : plain) {
      setup_samples.push_back(r.setup_s);
    }
    metrics = {
        {"normalized_goodput", MedianOf(outcomes, [](const Outcome& o) { return o.goodput; }),
         "share"},
        {"wasted_gpu_share", MedianOf(outcomes, [](const Outcome& o) { return o.wasted; }),
         "share"},
        {"latency_p50_ms", MedianOf(outcomes, [](const Outcome& o) { return o.p50_ms; }), "ms"},
        {"latency_p99_ms", MedianOf(outcomes, [](const Outcome& o) { return o.p99_ms; }), "ms"},
        {"req_per_cpu_s",
         MedianOf(plain,
                  [](const Rep& r) { return static_cast<double>(r.out.total) / r.run_cpu_s; }),
         "1/s"},
        {"setup_s", Median(setup_samples), "s"},
        {"peak_rss_mb", MedianOf(plain, [](const Rep& r) { return r.peak_rss_mb; }), "MB"},
    };
  } else {
    Layers layers;
    for (const auto& [name, unit] : LayerUnits()) {
      (void)unit;
      layers[name] = 0.0;
    }
    for (const auto& [name, value] : timed.front().layers) {
      (void)value;
      layers[name] = MedianOf(timed, [&name = name](const Rep& r) { return r.layers.at(name); });
    }
    const double plain_cpu = MedianOf(plain, [](const Rep& r) { return r.run_cpu_s; });
    const double timed_cpu = layers["run_cpu_s"];
    layers["bench.trace_overhead_share"] = timed_cpu / plain_cpu - 1.0;
    double obs_cpu = 0.0;
    if (w.obs) {
      const double no_obs_cpu = MedianOf(timed_no_obs, [](const Rep& r) { return r.run_cpu_s; });
      layers["obs.overhead_share"] = timed_cpu / no_obs_cpu - 1.0;
      obs_cpu = std::max(0.0, timed_cpu - no_obs_cpu);
    }
    layers["runtime.self_cpu_s"] = timed_cpu - layers["policy.total_busy_s"] - obs_cpu;
    for (const auto& [name, unit] : LayerUnits()) {
      metrics.push_back({name, layers[name], unit});
    }
  }

  // One JSON line; run.py renders it.
  pard::JsonObject report;
  report["workload"] = std::string(w.name);
  report["seed"] = static_cast<std::int64_t>(args.seed);
  report["trace"] = args.trace;
  report["correct"] = correct;
  report["attempted"] = static_cast<std::int64_t>(attempted);
  report["failed"] = static_cast<std::int64_t>(failed);
  pard::JsonObject counts;
  counts["sent"] = static_cast<std::int64_t>(attempted);
  counts["good"] = static_cast<std::int64_t>(good);
  counts["dropped"] = static_cast<std::int64_t>(dropped);
  counts["late"] = static_cast<std::int64_t>(late);
  counts["failed"] = static_cast<std::int64_t>(failed);
  counts["latency_samples"] = static_cast<std::int64_t>(plain.front().out.latency_samples);
  counts["repetitions"] = static_cast<std::int64_t>(plain.size() + timed.size() +
                                                    timed_no_obs.size());
  report["counts"] = std::move(counts);
  pard::JsonObject check_obj;
  for (const auto& [name, ok] : checks) {
    check_obj[name] = ok;
  }
  report["checks"] = std::move(check_obj);
  pard::JsonObject metric_obj;
  for (const Metric& m : metrics) {
    pard::JsonObject entry;
    entry["value"] = m.value;
    entry["unit"] = std::string(m.unit);
    metric_obj[m.name] = std::move(entry);
  }
  report["metrics"] = std::move(metric_obj);
  pard::JsonObject params;
  params["app"] = std::string(w.app);
  params["trace"] = std::string(w.trace);
  params["policy"] = std::string(w.policy);
  params["duration_s"] = w.duration_s;
  params["base_rate"] = w.base_rate;
  params["provision"] = w.provision;
  params["obs_sample_rate"] = w.obs ? kObsSampleRate : 0.0;
  params["substrate"] = std::string(w.serve ? "serve" : "sim");
  params["speedup"] = w.speedup;
  params["shape_seed"] = static_cast<std::int64_t>(kShapeSeed);
  params["program_seed"] = static_cast<std::int64_t>(kProgramSeed);
  report["params"] = std::move(params);
  pard::JsonObject build;
  build["compiler"] = std::string(PERFBENCH_COMPILER);
  build["build_type"] = std::string(PERFBENCH_BUILD_TYPE);
  build["hardware_threads"] = static_cast<std::int64_t>(std::thread::hardware_concurrency());
  report["build"] = std::move(build);
  std::printf("%s\n", pard::JsonValue(std::move(report)).Dump().c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pard_bench: %s\n", e.what());
    return 1;
  }
}
