// bench_compare — CI perf-regression gate over micro_overhead --json output.
//
// Every gate lives in one manifest, bench/gates.json: each entry names a
// checked-in baseline report, a bound, and the counter-name substrings it
// gates. Gate mode diffs a current Google-Benchmark JSON report against every
// entry and fails when a gated counter slowed past (1 + bound) x its
// baseline row:
//
//   bench_compare bench/gates.json now.json --report compare.txt
//
// A gated counter missing from the current report is itself a failure
// (deleting a counter must not silently pass the gate), and a gate that
// matches no baseline row with a positive cpu_time is refused as vacuous.
// A "HOST MISMATCH:" line names each baseline measured on a host whose CPU
// count, clock or benchmark-library build differs from the current
// report's; it informs and changes no verdict. Exit codes:
//   0 = all gated counters within their bounds
//   1 = regression (or gated counter missing)
//   2 = usage / IO / malformed manifest or report / vacuous gate
//
// A second mode renders the manifest's ordered baseline series, plus any
// extra reports given after it, as a markdown trajectory table (the perf
// dashboard CI uploads as an artifact):
//
//   bench_compare --history bench/gates.json now.json --report bench_history.md
//
// Perf noise note: CI runners are noisy, which is why the bounds are wide —
// they catch "accidentally made the broker 2x slower" classes of
// regression, not single-digit drift.
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "jsonio/json.h"

namespace {

struct BenchRow {
  double cpu_time_ns = 0.0;
};

double UnitToNs(const std::string& unit) {
  if (unit == "ns") return 1.0;
  if (unit == "us") return 1e3;
  if (unit == "ms") return 1e6;
  if (unit == "s") return 1e9;
  throw pard::CheckError("unknown time_unit \"" + unit + "\"");
}

std::string ReadFile(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  PARD_CHECK_MSG(f != nullptr, "cannot open " + path);
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);
  return text;
}

// Writes `text` to `path` unless `path` is empty; false (after saying so on
// stderr) when the file cannot be written.
bool WriteIfRequested(const std::string& path, const std::string& text) {
  if (path.empty()) {
    return true;
  }
  FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), out);
  std::fclose(out);
  return true;
}

// "num_cpus=1 mhz_per_cpu=2100 library_build_type=debug" from a report's
// context block; a missing field reads "?".
std::string HostOf(const pard::JsonValue& doc) {
  const pard::JsonValue* context = doc.Find("context");
  std::string host;
  for (const char* key : {"num_cpus", "mhz_per_cpu", "library_build_type"}) {
    const pard::JsonValue* value = context != nullptr ? context->Find(key) : nullptr;
    std::string text = "?";
    if (value != nullptr && value->IsNumber()) {
      text = pard::StrFormat("%g", value->AsDouble());
    } else if (value != nullptr && value->IsString()) {
      text = value->AsString();
    }
    host += (host.empty() ? "" : " ") + std::string(key) + "=" + text;
  }
  return host;
}

// name -> normalized cpu_time in ns, per-iteration rows only. `host`, when
// given, receives HostOf(report).
std::map<std::string, BenchRow> LoadReport(const std::string& path,
                                           std::string* host = nullptr) {
  const pard::JsonValue doc = pard::ParseJson(ReadFile(path));
  if (host != nullptr) {
    *host = HostOf(doc);
  }
  const pard::JsonValue* benchmarks = doc.Find("benchmarks");
  PARD_CHECK_MSG(benchmarks != nullptr && benchmarks->IsArray(),
                 path + " has no \"benchmarks\" array (is this --json output?)");
  std::map<std::string, BenchRow> rows;
  for (const pard::JsonValue& b : benchmarks->AsArray()) {
    if (const pard::JsonValue* run_type = b.Find("run_type");
        run_type != nullptr && run_type->AsString() != "iteration") {
      continue;  // Skip mean/median/stddev aggregate rows.
    }
    BenchRow row;
    row.cpu_time_ns = b.At("cpu_time").AsDouble() * UnitToNs(b.At("time_unit").AsString());
    rows[b.At("name").AsString()] = row;
  }
  PARD_CHECK_MSG(!rows.empty(), path + " contains no benchmark rows");
  return rows;
}

bool IsGated(const std::string& name, const std::vector<std::string>& gates) {
  for (const std::string& gate : gates) {
    if (name.find(gate) != std::string::npos) {
      return true;
    }
  }
  return false;
}

// "bench/BENCH_PR4.json" -> "BENCH_PR4".
std::string FileLabel(const std::string& path) {
  std::string label = path;
  if (const std::size_t slash = label.find_last_of("/\\"); slash != std::string::npos) {
    label = label.substr(slash + 1);
  }
  if (label.size() > 5 && label.substr(label.size() - 5) == ".json") {
    label = label.substr(0, label.size() - 5);
  }
  return label;
}

// One manifest entry: the counters gated against one baseline.
struct Gate {
  std::string baseline;  // path, resolved against the manifest's directory
  double bound = 0.0;    // fail once current / baseline > 1 + bound
  std::vector<std::string> counters;  // benchmark-name substrings
};

struct Manifest {
  std::vector<std::string> history;  // baseline paths, oldest first
  std::vector<Gate> gates;
};

Manifest LoadManifest(const std::string& path) {
  const std::size_t slash = path.find_last_of("/\\");
  const std::string dir = slash == std::string::npos ? "" : path.substr(0, slash + 1);
  const pard::JsonValue doc = pard::ParseJson(ReadFile(path));
  Manifest manifest;
  for (const pard::JsonValue& entry : doc.At("history").AsArray()) {
    manifest.history.push_back(dir + entry.AsString());
  }
  PARD_CHECK_MSG(!manifest.history.empty(), path << ": \"history\" is empty");
  for (const pard::JsonValue& entry : doc.At("gates").AsArray()) {
    Gate gate;
    gate.baseline = dir + entry.At("baseline").AsString();
    gate.bound = entry.At("bound").AsDouble();
    PARD_CHECK_MSG(gate.bound > 0.0 && std::isfinite(gate.bound),
                   path << ": gate on " << gate.baseline << " needs a positive bound");
    for (const pard::JsonValue& counter : entry.At("counters").AsArray()) {
      gate.counters.push_back(counter.AsString());
    }
    PARD_CHECK_MSG(!gate.counters.empty(),
                   path << ": gate on " << gate.baseline << " names no counters");
    manifest.gates.push_back(std::move(gate));
  }
  return manifest;
}

// Gates every manifest entry against one current report.
int RunGates(const Manifest& manifest, const std::string& current_path,
             const std::string& report_path) {
  if (manifest.gates.empty()) {
    std::fprintf(stderr, "bench_compare: the manifest has no gates\n");
    return 2;
  }
  std::string current_host;
  std::map<std::string, BenchRow> current;
  std::vector<std::map<std::string, BenchRow>> baselines;
  std::vector<std::string> baseline_hosts(manifest.gates.size());
  try {
    current = LoadReport(current_path, &current_host);
    for (std::size_t i = 0; i < manifest.gates.size(); ++i) {
      baselines.push_back(LoadReport(manifest.gates[i].baseline, &baseline_hosts[i]));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_compare: %s\n", e.what());
    return 2;
  }

  // Every counter must anchor to at least one usable baseline row — a
  // baseline captured from a truncated run (or with a zero timing) would
  // otherwise silently stop gating the very counter the gate exists for.
  for (std::size_t i = 0; i < manifest.gates.size(); ++i) {
    for (const std::string& counter : manifest.gates[i].counters) {
      bool anchored = false;
      for (const auto& [name, row] : baselines[i]) {
        if (name.find(counter) != std::string::npos && row.cpu_time_ns > 0.0) {
          anchored = true;
          break;
        }
      }
      if (!anchored) {
        std::fprintf(stderr,
                     "bench_compare: gate \"%s\" matches no baseline benchmark with a "
                     "positive cpu_time in %s — refusing to run a vacuous gate\n",
                     counter.c_str(), manifest.gates[i].baseline.c_str());
        return 2;
      }
    }
  }

  std::string table;
  std::string mismatches;
  std::vector<std::string> failures;
  int gated_seen = 0;
  for (std::size_t i = 0; i < manifest.gates.size(); ++i) {
    const Gate& gate = manifest.gates[i];
    const std::string label = FileLabel(gate.baseline);
    const double limit = 1.0 + gate.bound;
    table += pard::StrFormat("%s%s (limit %.2fx)\n%-40s %14s %14s %8s  %s\n",
                             i == 0 ? "" : "\n", label.c_str(), limit, "benchmark",
                             "baseline(ns)", "current(ns)", "ratio", "verdict");
    for (const auto& [name, base_row] : baselines[i]) {
      if (!IsGated(name, gate.counters)) {
        continue;
      }
      const auto it = current.find(name);
      if (it == current.end()) {
        failures.push_back(label + ": " + name + " missing from current report");
        table += pard::StrFormat("%-40s %14.1f %14s %8s  MISSING\n", name.c_str(),
                                 base_row.cpu_time_ns, "-", "-");
        continue;
      }
      ++gated_seen;
      const double ratio = base_row.cpu_time_ns > 0.0
                               ? it->second.cpu_time_ns / base_row.cpu_time_ns
                               : 0.0;
      const bool regressed = ratio > limit;
      if (regressed) {
        failures.push_back(pard::StrFormat("%s: %s slowed %.2fx (limit %.2fx)", label.c_str(),
                                           name.c_str(), ratio, limit));
      }
      table += pard::StrFormat("%-40s %14.1f %14.1f %8.3f  %s\n", name.c_str(),
                               base_row.cpu_time_ns, it->second.cpu_time_ns, ratio,
                               regressed ? "REGRESSED" : "ok");
    }
    if (baseline_hosts[i] != current_host) {
      mismatches += "HOST MISMATCH: " + label + " (" + baseline_hosts[i] + ") vs current (" +
                    current_host + ")\n";
    }
  }

  std::string summary = "\n" + mismatches;
  if (failures.empty()) {
    summary += pard::StrFormat("PASS: %d gated counters within bounds across %zu gates\n",
                               gated_seen, manifest.gates.size());
  } else {
    summary += pard::StrFormat("FAIL: %zu gated regression(s):\n", failures.size());
    for (const std::string& failure : failures) {
      summary += "  - " + failure + "\n";
    }
  }
  std::printf("%s%s", table.c_str(), summary.c_str());
  if (!WriteIfRequested(report_path, table + summary)) {
    return 2;
  }
  return failures.empty() ? 0 : 1;
}

// Drift in --history: a run of 3+ consecutive reports where every step
// slows by at most kDriftStep (so no single gate step would catch it) and
// the run as a whole by more than kDriftTotal.
constexpr double kDriftStep = 0.30;
constexpr double kDriftTotal = 0.25;

// --history: renders the baseline series as a markdown trajectory table.
// Rows are the union of benchmark names; the final column is the
// newest/oldest ratio (blank when either end is missing). Exit 0 on
// success, 2 on IO/parse problems — there is no pass/fail judgement here,
// the gate mode owns that.
//
// Drift detection: the per-PR gate only sees one step, so a counter can
// creep +20% every PR forever without tripping a +30% threshold. The
// history view flags exactly that shape — a run of 3+ consecutive reports
// where every step slows down but stays under kDriftStep, and the
// cumulative slowdown exceeds kDriftTotal — with a "DRIFT:" line after the
// table. Informational only (exit stays 0):
// a human decides whether the trend is intentional, but CI logs make it
// impossible to miss.
std::string RenderHistoryHtml(const std::vector<std::map<std::string, BenchRow>>& reports,
                              const std::vector<std::string>& labels);

int RenderHistory(const std::vector<std::string>& paths, const std::string& report_path,
                  const std::string& html_path) {
  std::vector<std::map<std::string, BenchRow>> reports;
  std::vector<std::string> labels;
  try {
    for (const std::string& path : paths) {
      reports.push_back(LoadReport(path));
      labels.push_back(FileLabel(path));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_compare: %s\n", e.what());
    return 2;
  }
  std::map<std::string, bool> names;
  for (const auto& report : reports) {
    for (const auto& [name, row] : report) {
      (void)row;
      names[name] = true;
    }
  }
  // Each report column after the first is followed by a per-counter delta
  // column (Δ% vs the previous report), so a step change is readable in the
  // artifact without mental division; the final column keeps the
  // newest/oldest summary ratio.
  std::string table = "# Perf trajectory (cpu time per iteration, ns)\n\n| benchmark |";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) {
      table += " Δ% |";
    }
    table += " " + labels[i] + " |";
  }
  table += " " + labels.back() + "/" + labels.front() + " |\n|---|";
  for (std::size_t i = 0; i < 2 * labels.size() - 1; ++i) {
    table += "---:|";
  }
  table += "---:|\n";
  for (const auto& [name, present] : names) {
    (void)present;
    table += "| " + name + " |";
    const BenchRow* first = nullptr;
    const BenchRow* last = nullptr;
    const BenchRow* prev = nullptr;
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const auto it = reports[i].find(name);
      if (it == reports[i].end()) {
        if (i > 0) {
          table += " - |";  // Delta column.
        }
        table += " - |";
        prev = nullptr;  // A gap breaks the adjacent-delta chain.
        continue;
      }
      if (i > 0) {
        if (prev != nullptr && prev->cpu_time_ns > 0.0) {
          const double delta =
              100.0 * (it->second.cpu_time_ns / prev->cpu_time_ns - 1.0);
          table += pard::StrFormat(" %+.1f%% |", delta);
        } else {
          table += " - |";
        }
      }
      table += pard::StrFormat(" %.1f |", it->second.cpu_time_ns);
      prev = &it->second;
      if (first == nullptr) {
        first = &it->second;
      }
      if (i + 1 == reports.size()) {
        last = &it->second;
      }
    }
    if (first != nullptr && last != nullptr && first->cpu_time_ns > 0.0 &&
        reports.front().count(name) != 0) {
      table += pard::StrFormat(" %.3fx |\n", last->cpu_time_ns / first->cpu_time_ns);
    } else {
      table += " - |\n";
    }
  }
  // Monotone sub-gate creep across the series.
  std::string drift;
  for (const auto& [name, present] : names) {
    (void)present;
    // Longest run of consecutive reports containing this benchmark; a gap
    // (renamed/added counter) resets the run rather than comparing across it.
    std::vector<double> run;
    std::size_t run_start = 0;
    const auto flag_run = [&](const std::vector<double>& series, std::size_t start) {
      if (series.size() < 3 || series.front() <= 0.0) {
        return;
      }
      for (std::size_t i = 1; i < series.size(); ++i) {
        const double step = series[i] / series[i - 1];
        if (step < 1.0 || step > 1.0 + kDriftStep) {
          return;  // Not a monotone creep, or a step the gate would catch.
        }
      }
      const double total = series.back() / series.front();
      if (total > 1.0 + kDriftTotal) {
        drift += pard::StrFormat("DRIFT: %s +%.0f%% over %zu reports (%s..%s, each step under "
                                 "+%.0f%%)\n",
                                 name.c_str(), 100.0 * (total - 1.0), series.size(),
                                 labels[start].c_str(),
                                 labels[start + series.size() - 1].c_str(),
                                 100.0 * kDriftStep);
      }
    };
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const auto it = reports[i].find(name);
      if (it == reports[i].end()) {
        flag_run(run, run_start);
        run.clear();
        continue;
      }
      if (run.empty()) {
        run_start = i;
      }
      run.push_back(it->second.cpu_time_ns);
    }
    flag_run(run, run_start);
  }
  if (!drift.empty()) {
    table += "\n" + drift;
  }
  std::printf("%s", table.c_str());
  if (!WriteIfRequested(report_path, table) ||
      (!html_path.empty() &&
       !WriteIfRequested(html_path, RenderHistoryHtml(reports, labels)))) {
    return 2;
  }
  return 0;
}

std::string HtmlEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

// --history --html: a standalone HTML/inline-SVG chart of the same series
// the markdown table tabulates. Each benchmark is one polyline of its cpu
// time normalized to its first present report (log2 y-axis, so a 2x
// speedup and a 2x regression are symmetric around the 1.0x gridline); the
// legend carries the final ratio. Self-contained by construction — no
// scripts, no external assets — so CI can upload the file as-is.
std::string RenderHistoryHtml(const std::vector<std::map<std::string, BenchRow>>& reports,
                              const std::vector<std::string>& labels) {
  // Series: benchmark -> per-report normalized ratio (NaN = missing).
  std::map<std::string, bool> names;
  for (const auto& report : reports) {
    for (const auto& [name, row] : report) {
      (void)row;
      names[name] = true;
    }
  }
  struct Series {
    std::string name;
    std::vector<double> ratio;  // log2(value / first present value)
    double final_ratio = 1.0;
  };
  std::vector<Series> series;
  double lo = 0.0;
  double hi = 0.0;
  for (const auto& [name, present] : names) {
    (void)present;
    Series s;
    s.name = name;
    double first = 0.0;
    double last = 0.0;
    for (const auto& report : reports) {
      const auto it = report.find(name);
      if (it == report.end() || it->second.cpu_time_ns <= 0.0) {
        s.ratio.push_back(std::nan(""));
        continue;
      }
      if (first <= 0.0) {
        first = it->second.cpu_time_ns;
      }
      last = it->second.cpu_time_ns;
      const double r = std::log2(it->second.cpu_time_ns / first);
      s.ratio.push_back(r);
      lo = std::min(lo, r);
      hi = std::max(hi, r);
    }
    if (first > 0.0) {
      s.final_ratio = last / first;
      series.push_back(std::move(s));
    }
  }
  lo -= 0.2;
  hi += 0.2;

  // Layout: fixed plot box, legend below. Colors cycle a 12-hue palette.
  const double kW = 960.0, kH = 420.0, kL = 70.0, kR = 30.0, kT = 30.0, kB = 50.0;
  const double plot_w = kW - kL - kR;
  const double plot_h = kH - kT - kB;
  const std::size_t n = reports.size();
  const auto x_at = [&](std::size_t i) {
    return kL + (n > 1 ? plot_w * static_cast<double>(i) / static_cast<double>(n - 1)
                       : plot_w / 2.0);
  };
  const auto y_at = [&](double r) { return kT + plot_h * (hi - r) / (hi - lo); };
  static const char* kPalette[] = {"#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
                                   "#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
                                   "#bcbd22", "#17becf", "#aec7e8", "#ffbb78"};
  const std::size_t kPaletteSize = sizeof(kPalette) / sizeof(kPalette[0]);

  std::string svg = pard::StrFormat(
      "<svg viewBox=\"0 0 %.0f %.0f\" xmlns=\"http://www.w3.org/2000/svg\" "
      "font-family=\"sans-serif\" font-size=\"12\">\n",
      kW, kH);
  // Horizontal gridlines at power-of-two ratios inside [lo, hi].
  for (int p = static_cast<int>(std::floor(lo)); p <= static_cast<int>(std::ceil(hi)); ++p) {
    const double r = static_cast<double>(p);
    if (r < lo || r > hi) {
      continue;
    }
    const double y = y_at(r);
    svg += pard::StrFormat(
        "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" stroke=\"%s\" "
        "stroke-width=\"1\"/>\n",
        kL, y, kW - kR, y, p == 0 ? "#999" : "#ddd");
    svg += pard::StrFormat(
        "<text x=\"%.1f\" y=\"%.1f\" text-anchor=\"end\" fill=\"#555\">%gx</text>\n",
        kL - 8.0, y + 4.0, std::exp2(r));
  }
  // X labels (report names).
  for (std::size_t i = 0; i < n; ++i) {
    svg += pard::StrFormat(
        "<text x=\"%.1f\" y=\"%.1f\" text-anchor=\"middle\" fill=\"#555\">%s</text>\n",
        x_at(i), kH - kB + 20.0, HtmlEscape(labels[i]).c_str());
  }
  // One polyline per benchmark (gaps break the line into segments).
  std::string legend = "<table style=\"border-collapse:collapse\">\n";
  for (std::size_t si = 0; si < series.size(); ++si) {
    const Series& s = series[si];
    const char* color = kPalette[si % kPaletteSize];
    std::string points;
    for (std::size_t i = 0; i < s.ratio.size(); ++i) {
      if (std::isnan(s.ratio[i])) {
        if (!points.empty()) {
          svg += "<polyline fill=\"none\" stroke=\"" + std::string(color) +
                 "\" stroke-width=\"1.5\" points=\"" + points + "\"/>\n";
          points.clear();
        }
        continue;
      }
      points += pard::StrFormat("%.1f,%.1f ", x_at(i), y_at(s.ratio[i]));
      svg += pard::StrFormat(
          "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"2.5\" fill=\"%s\"/>\n", x_at(i),
          y_at(s.ratio[i]), color);
    }
    if (!points.empty()) {
      svg += "<polyline fill=\"none\" stroke=\"" + std::string(color) +
             "\" stroke-width=\"1.5\" points=\"" + points + "\"/>\n";
    }
    legend += pard::StrFormat(
        "<tr><td style=\"padding:2px 8px\"><span style=\"display:inline-block;width:12px;"
        "height:12px;background:%s\"></span></td><td style=\"padding:2px 8px\"><code>%s</code>"
        "</td><td style=\"padding:2px 8px;text-align:right\">%.3fx</td></tr>\n",
        color, HtmlEscape(s.name).c_str(), s.final_ratio);
  }
  legend += "</table>\n";
  svg += "</svg>\n";

  std::string html =
      "<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n"
      "<title>Perf trajectory</title>\n</head>\n<body style=\"font-family:sans-serif;"
      "max-width:1000px;margin:2em auto\">\n"
      "<h1>Perf trajectory</h1>\n"
      "<p>Per-iteration cpu time of every benchmark across the checked-in baseline\n"
      "series, normalized to the benchmark's first appearance (log<sub>2</sub> scale:\n"
      "below the 1x line is faster, above is slower). Final column of the legend is\n"
      "newest/first. The markdown table artifact carries the raw numbers.</p>\n" +
      svg + "<h2>Legend (final ratio)</h2>\n" + legend + "</body>\n</html>\n";
  return html;
}

}  // namespace

int main(int argc, char** argv) {
  pard::FlagSet flags;
  flags.AddString("report", "", "also write the comparison (or trajectory) table to this file");
  flags.AddBool("history", false,
                "render the manifest's baseline series, plus any reports given after it, "
                "as a markdown trajectory table instead of gating");
  flags.AddString("html", "",
                  "--history: also write a standalone HTML/SVG chart of the series "
                  "(normalized per-benchmark polylines) to this file");
  const char* gate_usage = "bench_compare <gates.json> <current.json>";
  const char* history_usage = "bench_compare --history <gates.json> [report.json ...]";
  try {
    flags.Parse(argc - 1, argv + 1);
  } catch (const pard::CheckError& e) {
    std::fprintf(stderr, "%s\n%s", e.what(), flags.Usage(gate_usage).c_str());
    return 2;
  }
  const bool history = flags.GetBool("history");
  const std::vector<std::string>& args = flags.positional();
  if (flags.HelpRequested() || (history ? args.empty() : args.size() != 2)) {
    std::printf("%s", flags.Usage(history ? history_usage : gate_usage).c_str());
    return flags.HelpRequested() ? 0 : 2;
  }
  Manifest manifest;
  try {
    manifest = LoadManifest(args[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_compare: %s\n", e.what());
    return 2;
  }
  if (history) {
    std::vector<std::string> paths = manifest.history;
    paths.insert(paths.end(), args.begin() + 1, args.end());
    return RenderHistory(paths, flags.GetString("report"), flags.GetString("html"));
  }
  return RunGates(manifest, args[1], flags.GetString("report"));
}
