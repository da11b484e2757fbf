// The micro-benchmark gate manifest (bench/gates.json) and the bench_compare
// gate mode that reads it.
//
//   - The manifest carries every (counter, baseline, bound) triple that the
//     per-baseline CI gate steps checked before the manifest existed, listed
//     here literally, so no gate can be dropped or loosened unnoticed.
//   - Every gated baseline is part of the rendered history series.
//   - A baseline measured on another host is named by one "HOST MISMATCH:"
//     line, and nothing else in the output or the exit code changes.
//   - Each gated baseline, gated alone against itself through its own
//     manifest entry, passes with every counter anchored (the per-baseline
//     self-checks; each also runs as its own ctest entry).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "jsonio/json.h"

namespace pard {
namespace {

std::string SourcePath(const std::string& relative) {
  return std::string(PARD_SOURCE_DIR) + "/" + relative;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

using Triple = std::tuple<std::string, std::string, double>;  // counter, baseline, bound

std::set<Triple> ManifestTriples() {
  const JsonValue manifest = ParseJson(ReadFile(SourcePath("bench/gates.json")));
  std::set<Triple> triples;
  for (const JsonValue& gate : manifest.At("gates").AsArray()) {
    for (const JsonValue& counter : gate.At("counters").AsArray()) {
      triples.emplace(counter.AsString(), gate.At("baseline").AsString(),
                      gate.At("bound").AsDouble());
    }
  }
  return triples;
}

TEST(BenchGates, ManifestKeepsEveryFormerCiGate) {
  struct Step {
    const char* baseline;
    double bound;
    std::vector<const char*> counters;
  };
  const std::vector<const char*> kDefault = {
      "BM_EventScheduleFire", "BM_EventScheduleCancel", "BM_BrokerDecisionWarmEpoch"};
  const std::vector<const char*> kPr6 = {
      "BM_EventScheduleFire", "BM_EventScheduleCancel", "BM_BrokerDecisionWarmEpoch",
      "BM_AdmissionDecisionSnapshot"};
  const std::vector<const char*> kPr7 = {
      "BM_EventScheduleFire",         "BM_EventScheduleCancel",  "BM_BrokerDecisionWarmEpoch",
      "BM_AdmissionDecisionSnapshot", "BM_ObsAdmissionUntraced", "BM_ObsAdmissionTraced",
      "BM_EndToEndRunTraced"};
  const std::vector<const char*> kPr8 = {
      "BM_EventScheduleFire",         "BM_EventScheduleCancel",      "BM_BrokerDecisionWarmEpoch",
      "BM_AdmissionDecisionSnapshot", "BM_ObsAdmissionUntraced",     "BM_ObsAdmissionTraced",
      "BM_EndToEndRunTraced",         "BM_ChaosScheduleParseExpand", "BM_RetryPathKillHeavy"};
  const std::vector<const char*> kPr9 = {
      "BM_EventScheduleFire",         "BM_EventScheduleCancel",      "BM_BrokerDecisionWarmEpoch",
      "BM_AdmissionDecisionSnapshot", "BM_ObsAdmissionUntraced",     "BM_ObsAdmissionTraced",
      "BM_EndToEndRunTraced",         "BM_ChaosScheduleParseExpand", "BM_RetryPathKillHeavy",
      "BM_TenantAdmissionDecision",   "BM_TenantConsolidationRun"};
  const std::vector<const char*> kPr10 = {
      "BM_EventScheduleFire",          "BM_EventScheduleCancel",
      "BM_BrokerDecisionWarmEpoch",    "BM_AdmissionDecisionSnapshot",
      "BM_ObsAdmissionUntraced",       "BM_ObsAdmissionTraced",
      "BM_EndToEndRunTraced",          "BM_ChaosScheduleParseExpand",
      "BM_RetryPathKillHeavy",         "BM_TenantAdmissionDecision",
      "BM_TenantConsolidationRun",     "BM_BrokerDecisionColdEpoch",
      "BM_ControlSyncRefresh1Modules", "BM_ControlSyncRefresh4Modules",
      "BM_ControlSyncRefresh16Modules"};
  const std::vector<Step> steps = {
      {"BENCH_PR3.json", 0.30, kDefault}, {"BENCH_PR5.json", 1.5, kDefault},
      {"BENCH_PR6.json", 1.5, kPr6},      {"BENCH_PR7.json", 1.5, kPr7},
      {"BENCH_PR8.json", 1.5, kPr8},      {"BENCH_PR9.json", 1.5, kPr9},
      {"BENCH_PR10.json", 1.5, kPr10}};

  const std::set<Triple> manifest = ManifestTriples();
  std::size_t pinned = 0;
  for (const Step& step : steps) {
    for (const char* counter : step.counters) {
      EXPECT_EQ(manifest.count(Triple(counter, step.baseline, step.bound)), 1u)
          << counter << " against " << step.baseline << " at +" << step.bound;
      ++pinned;
    }
  }
  EXPECT_EQ(pinned, 52u);
}

TEST(BenchGates, EveryGatedBaselineIsInTheHistorySeries) {
  const JsonValue manifest = ParseJson(ReadFile(SourcePath("bench/gates.json")));
  std::set<std::string> history;
  for (const JsonValue& path : manifest.At("history").AsArray()) {
    history.insert(path.AsString());
    EXPECT_TRUE(ParseJson(ReadFile(SourcePath("bench/" + path.AsString())))
                    .At("benchmarks")
                    .IsArray())
        << path.AsString();
  }
  for (const JsonValue& gate : manifest.At("gates").AsArray()) {
    EXPECT_EQ(history.count(gate.At("baseline").AsString()), 1u)
        << gate.At("baseline").AsString();
  }
}

struct GateRun {
  int exit_code = -1;
  std::string out;
};

// Gates `current` against the gate manifest at `manifest` with the built
// bench_compare.
GateRun RunBenchCompare(const std::string& manifest, const std::string& current) {
  const std::string command = std::string("\"") + PARD_BENCH_COMPARE + "\" \"" + manifest +
                              "\" \"" + current + "\" 2>&1";
  GateRun run;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    ADD_FAILURE() << "cannot run " << command;
    return run;
  }
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    run.out.append(buf, n);
  }
  const int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

// Gates `current` against bench/gates.json.
GateRun GateAgainstManifest(const std::string& current) {
  return RunBenchCompare(SourcePath("bench/gates.json"), current);
}

// A copy of the report at `path` whose context claims a 64-CPU host.
std::string OnAnotherHost(const std::string& path, const std::string& name) {
  JsonValue doc = ParseJson(ReadFile(path));
  doc.AsObject()["context"].AsObject()["num_cpus"] = JsonValue(64);
  const std::string out_path = ::testing::TempDir() + name;
  std::ofstream(out_path) << doc.Dump();
  return out_path;
}

// Drops the HOST MISMATCH lines and returns how many there were.
int StripHostMismatches(std::string* out) {
  std::istringstream lines(*out);
  std::string kept;
  std::string line;
  int stripped = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("HOST MISMATCH: ", 0) == 0) {
      ++stripped;
      continue;
    }
    kept += line + "\n";
  }
  *out = kept;
  return stripped;
}

TEST(BenchGates, HostMismatchIsReportedWithoutChangingTheVerdict) {
  const std::size_t gates =
      ParseJson(ReadFile(SourcePath("bench/gates.json"))).At("gates").AsArray().size();
  const struct {
    const char* report;
    int exit_code;
  } cases[] = {{"bench/BENCH_PR10.json", 0}, {"tests/data/bench_regressed.json", 1}};
  for (const auto& c : cases) {
    GateRun same_host = GateAgainstManifest(SourcePath(c.report));
    GateRun other_host = GateAgainstManifest(
        OnAnotherHost(SourcePath(c.report), "bench_gates_other_host.json"));
    EXPECT_EQ(same_host.exit_code, c.exit_code) << c.report << "\n" << same_host.out;
    EXPECT_EQ(other_host.exit_code, c.exit_code) << c.report << "\n" << other_host.out;
    EXPECT_EQ(StripHostMismatches(&same_host.out), 0) << c.report;
    EXPECT_EQ(StripHostMismatches(&other_host.out), static_cast<int>(gates)) << c.report;
    EXPECT_EQ(same_host.out, other_host.out) << c.report;
  }
}

// One gated baseline, gated alone against itself: its bench/gates.json entry
// is copied into a one-entry manifest beside a copy of the baseline, so the
// counters and bound come from the manifest and nowhere else.
class GateSelfCheck : public ::testing::TestWithParam<const char*> {};

TEST_P(GateSelfCheck, BaselinePassesItsOwnGate) {
  const std::string baseline = GetParam();
  const JsonValue manifest = ParseJson(ReadFile(SourcePath("bench/gates.json")));
  const JsonValue* entry = nullptr;
  for (const JsonValue& gate : manifest.At("gates").AsArray()) {
    if (gate.At("baseline").AsString() == baseline) {
      entry = &gate;
    }
  }
  ASSERT_NE(entry, nullptr) << "bench/gates.json has no gate on " << baseline;

  // Named per process: the whole suite and a single-case run may overlap.
  const std::string copy_name = "self_gate_" + std::to_string(getpid()) + "_" + baseline;
  const std::string copy_path = ::testing::TempDir() + copy_name;
  const std::string manifest_path = copy_path + ".gates.json";
  std::ofstream(copy_path) << ReadFile(SourcePath("bench/" + baseline));
  JsonValue gate = *entry;
  gate.AsObject()["baseline"] = JsonValue(copy_name);
  std::ofstream(manifest_path)
      << JsonValue(JsonObject{{"history", JsonValue(JsonArray{JsonValue(copy_name)})},
                              {"gates", JsonValue(JsonArray{gate})}})
             .Dump();

  const GateRun run = RunBenchCompare(manifest_path, copy_path);
  std::remove(copy_path.c_str());
  std::remove(manifest_path.c_str());
  EXPECT_EQ(run.exit_code, 0) << run.out;
  EXPECT_NE(run.out.find("PASS: "), std::string::npos) << run.out;
  EXPECT_NE(run.out.find("across 1 gates"), std::string::npos) << run.out;
  EXPECT_EQ(run.out.find("MISSING"), std::string::npos) << run.out;
}

INSTANTIATE_TEST_SUITE_P(Manifest, GateSelfCheck,
                         ::testing::Values("BENCH_PR3.json", "BENCH_PR5.json", "BENCH_PR6.json",
                                           "BENCH_PR7.json", "BENCH_PR8.json", "BENCH_PR9.json",
                                           "BENCH_PR10.json"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           return name.substr(0, name.find('.'));
                         });

}  // namespace
}  // namespace pard
