// perf/compare.hpp: the baseline comparator behind `hmca-bench compare` and
// the CI perf gate. Documents are handwritten here so every edge — epsilon
// boundaries, scenario-set changes, the bless flow, the noise-aware
// wall-clock gate — is pinned independently of the runner.
#include "perf/compare.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace hmca::perf {
namespace {

std::string scenario_block(const std::string& id, const std::string& points,
                           int nodes = 2) {
  return R"({
      "id": ")" + id + R"(",
      "figure": "fig11",
      "kind": "allgather",
      "subject": "mha",
      "nodes": )" + std::to_string(nodes) + R"(,
      "ppn": 2,
      "hcas": 0,
      "faults": "",
      "msg_bytes": 0,
      "points": [)" + points + R"(]
    })";
}

std::string point_block(std::size_t x, const std::string& metrics) {
  return R"({"x": )" + std::to_string(x) + R"(, "metrics": {)" + metrics +
         "}}";
}

std::string wallclock_block(double median, double mad,
                            const std::string& probe = "p",
                            std::uint64_t peak_rss = 0) {
  std::ostringstream os;
  os << R"({"probe": ")" << probe << R"(", "repeats": 3, "events": 100,
            "samples_events_per_sec": [)" << median << R"(],
            "median_events_per_sec": )" << median << R"(,
            "mad_events_per_sec": )" << mad;
  if (peak_rss > 0) os << R"(, "peak_rss_bytes": )" << peak_rss;
  os << "}";
  return os.str();
}

std::string report_doc(const std::string& scenarios,
                       const std::string& fingerprint = "fp",
                       const std::string& wallclock = "") {
  std::string doc = R"({
    "format": "hmca-bench-1",
    "label": "t",
    "campaign": "c",
    "environment": {"git_sha": "s", "compiler": "g", "build_type": "R",
                    "os": "L", "arch": "x", "fingerprint": ")" + fingerprint +
                    R"("},
    "scenarios": [)" + scenarios + "]";
  if (!wallclock.empty()) doc += ",\n  \"wallclock\": " + wallclock;
  return doc + "\n}";
}

std::string one_latency_report(double latency) {
  std::ostringstream m;
  m.precision(17);  // default precision 6 would flatten sub-1e-6 drift
  m << "\"latency_us\": " << latency;
  return report_doc(scenario_block("s1", point_block(65536, m.str())));
}

CompareResult run(const std::string& base, const std::string& next,
                  const CompareOptions& opts = {}) {
  return compare_reports(Json::parse(base), Json::parse(next), opts);
}

TEST(PerfCompare, IdenticalReportsPass) {
  const std::string doc = one_latency_report(12.5);
  const CompareResult r = run(doc, doc);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.scenarios_compared, 1);
  EXPECT_EQ(r.metrics_compared, 1);
}

TEST(PerfCompare, RejectsNonReportDocuments) {
  const std::string good = one_latency_report(1.0);
  EXPECT_THROW(run("{\"format\": \"other\"}", good), JsonError);
  EXPECT_THROW(run(good, "{\"scenarios\": []}"), JsonError);
}

TEST(PerfCompare, DriftWithinRelativeEpsilonPasses) {
  // 1e-8 relative drift on a value of 100: below the 1e-7 gate.
  const CompareResult r =
      run(one_latency_report(100.0), one_latency_report(100.000001));
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.findings.empty());
}

TEST(PerfCompare, DriftAboveRelativeEpsilonFails) {
  // 1e-6 relative drift: an order of magnitude above the gate.
  const CompareResult r =
      run(one_latency_report(100.0), one_latency_report(100.0001));
  EXPECT_FALSE(r.ok());
  ASSERT_EQ(r.failures(), 1);
  EXPECT_NE(r.findings[0].text.find("latency_us"), std::string::npos);
  EXPECT_NE(r.findings[0].text.find("regression"), std::string::npos);
  EXPECT_EQ(r.findings[0].scenario, "s1");
}

TEST(PerfCompare, ImprovementIsStillDrift) {
  // Faster is still a model change: the baseline must be re-blessed.
  const CompareResult r =
      run(one_latency_report(100.0), one_latency_report(90.0));
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.findings[0].text.find("improvement"), std::string::npos);
}

TEST(PerfCompare, AbsoluteFloorAbsorbsTinyValues) {
  // Near-zero metrics: relative epsilon explodes, the absolute floor holds.
  const CompareResult r =
      run(one_latency_report(1e-12), one_latency_report(5e-10));
  EXPECT_TRUE(r.ok());
}

TEST(PerfCompare, BlessAcceptsDrift) {
  CompareOptions opts;
  opts.bless = true;
  const CompareResult r =
      run(one_latency_report(100.0), one_latency_report(150.0), opts);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.failures(), 0);
  EXPECT_EQ(r.blessed(), 1);
}

TEST(PerfCompare, MissingScenarioFailsAndBlessAccepts) {
  const std::string two = report_doc(
      scenario_block("s1", point_block(64, "\"latency_us\": 1")) + ",\n" +
      scenario_block("s2", point_block(64, "\"latency_us\": 2")));
  const std::string one =
      report_doc(scenario_block("s1", point_block(64, "\"latency_us\": 1")));
  const CompareResult r = run(two, one);
  ASSERT_EQ(r.failures(), 1);
  EXPECT_EQ(r.findings[0].scenario, "s2");
  EXPECT_NE(r.findings[0].text.find("missing"), std::string::npos);

  CompareOptions opts;
  opts.bless = true;
  EXPECT_TRUE(run(two, one, opts).ok());
}

TEST(PerfCompare, ExtraScenarioIsAlsoDrift) {
  const std::string one =
      report_doc(scenario_block("s1", point_block(64, "\"latency_us\": 1")));
  const std::string two = report_doc(
      scenario_block("s1", point_block(64, "\"latency_us\": 1")) + ",\n" +
      scenario_block("s2", point_block(64, "\"latency_us\": 2")));
  const CompareResult r = run(one, two);
  ASSERT_EQ(r.failures(), 1);
  EXPECT_NE(r.findings[0].text.find("not in baseline"), std::string::npos);
}

TEST(PerfCompare, MissingAndExtraSweepPointsFail) {
  const std::string base = report_doc(scenario_block(
      "s1", point_block(64, "\"latency_us\": 1") + ", " +
                point_block(128, "\"latency_us\": 2")));
  const std::string next = report_doc(scenario_block(
      "s1", point_block(64, "\"latency_us\": 1") + ", " +
                point_block(256, "\"latency_us\": 4")));
  const CompareResult r = run(base, next);
  EXPECT_EQ(r.failures(), 2);  // x=128 disappeared, x=256 new
}

TEST(PerfCompare, MissingAndNewMetricsFail) {
  const std::string base = report_doc(scenario_block(
      "s1", point_block(64, "\"latency_us\": 1, \"net_retries\": 0")));
  const std::string next = report_doc(scenario_block(
      "s1", point_block(64, "\"latency_us\": 1, \"shm_copy_bytes\": 8")));
  const CompareResult r = run(base, next);
  EXPECT_EQ(r.failures(), 2);  // net_retries disappeared, shm_copy_bytes new
}

TEST(PerfCompare, ShapeFieldChangeFails) {
  const std::string base =
      report_doc(scenario_block("s1", point_block(64, "\"latency_us\": 1"), 2));
  const std::string next =
      report_doc(scenario_block("s1", point_block(64, "\"latency_us\": 1"), 4));
  const CompareResult r = run(base, next);
  ASSERT_EQ(r.failures(), 1);
  EXPECT_NE(r.findings[0].text.find("nodes changed"), std::string::npos);
}

TEST(PerfCompare, WallclockDropBeyondThresholdFails) {
  const std::string sc =
      scenario_block("s1", point_block(64, "\"latency_us\": 1"));
  const std::string base =
      report_doc(sc, "fp", wallclock_block(1000.0, 10.0));
  const std::string next = report_doc(sc, "fp", wallclock_block(600.0, 10.0));
  const CompareResult r = run(base, next);  // -40% vs 25% threshold
  ASSERT_EQ(r.failures(), 1);
  EXPECT_NE(r.findings[0].text.find("wallclock"), std::string::npos);
}

TEST(PerfCompare, WallclockDropWithinThresholdPasses) {
  const std::string sc =
      scenario_block("s1", point_block(64, "\"latency_us\": 1"));
  const std::string base =
      report_doc(sc, "fp", wallclock_block(1000.0, 10.0));
  const std::string next = report_doc(sc, "fp", wallclock_block(850.0, 10.0));
  EXPECT_TRUE(run(base, next).ok());  // -15% vs 25% threshold
}

TEST(PerfCompare, WallclockMadWidensTheThreshold) {
  // -40% drop, but MAD says the machine is that noisy: 3*150/1000 = 45%.
  const std::string sc =
      scenario_block("s1", point_block(64, "\"latency_us\": 1"));
  const std::string base =
      report_doc(sc, "fp", wallclock_block(1000.0, 150.0));
  const std::string next = report_doc(sc, "fp", wallclock_block(600.0, 10.0));
  EXPECT_TRUE(run(base, next).ok());
}

TEST(PerfCompare, ForeignFingerprintWallclockIsInformational) {
  const std::string sc =
      scenario_block("s1", point_block(64, "\"latency_us\": 1"));
  const std::string base =
      report_doc(sc, "laptop", wallclock_block(1000.0, 10.0));
  const std::string next = report_doc(sc, "ci", wallclock_block(100.0, 10.0));
  const CompareResult r = run(base, next);  // -90%, but incomparable hosts
  EXPECT_TRUE(r.ok());
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].level, Finding::Level::kInfo);
  EXPECT_NE(r.findings[0].text.find("fingerprints differ"), std::string::npos);
}

TEST(PerfCompare, DifferingProbesAreInformational) {
  // A default-campaign baseline must never gate a scale-campaign report:
  // the probe workloads differ, so events/sec are incomparable.
  const std::string sc =
      scenario_block("s1", point_block(64, "\"latency_us\": 1"));
  const std::string base =
      report_doc(sc, "fp", wallclock_block(1000.0, 10.0, "small world"));
  const std::string next =
      report_doc(sc, "fp", wallclock_block(100.0, 10.0, "big world"));
  const CompareResult r = run(base, next);  // -90%, but different probes
  EXPECT_TRUE(r.ok());
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].level, Finding::Level::kInfo);
  EXPECT_NE(r.findings[0].text.find("probe workloads differ"),
            std::string::npos);
}

TEST(PerfCompare, PeakRssGrowthBeyondThresholdFails) {
  const std::string sc =
      scenario_block("s1", point_block(64, "\"latency_us\": 1"));
  const std::string base = report_doc(
      sc, "fp", wallclock_block(1000.0, 10.0, "p", 100'000'000));
  const std::string next = report_doc(
      sc, "fp", wallclock_block(1000.0, 10.0, "p", 150'000'000));
  const CompareResult r = run(base, next);  // +50% RSS vs 25% threshold
  ASSERT_EQ(r.failures(), 1);
  EXPECT_NE(r.findings[0].text.find("peak RSS"), std::string::npos);
}

TEST(PerfCompare, PeakRssWithinThresholdAndLegacyBaselinesPass) {
  const std::string sc =
      scenario_block("s1", point_block(64, "\"latency_us\": 1"));
  // +10% growth: within the threshold.
  EXPECT_TRUE(run(report_doc(sc, "fp",
                             wallclock_block(1000.0, 10.0, "p", 100'000'000)),
                  report_doc(sc, "fp",
                             wallclock_block(1000.0, 10.0, "p", 110'000'000)))
                  .ok());
  // Baseline predates the field: RSS must not gate at all.
  EXPECT_TRUE(run(report_doc(sc, "fp", wallclock_block(1000.0, 10.0)),
                  report_doc(sc, "fp",
                             wallclock_block(1000.0, 10.0, "p", 900'000'000)))
                  .ok());
}

TEST(PerfCompare, AttributionExplainsLatencyDrift) {
  // A point whose latency drifted and whose critical-path cells moved with
  // it: the comparator must not just flag the drift but explain it, and the
  // injected cause (phase2/nic grew by +48 us of a +50 us delta) must rank
  // ahead of the near-flat phase1/shm cell.
  const auto doc = [](double latency, double p2_nic, double p1_shm) {
    std::ostringstream m;
    m << "\"latency_us\": " << latency
      << ", \"critical_path_us\": " << (p2_nic + p1_shm)
      << ", \"cp_phase_phase1_us\": " << p1_shm
      << ", \"cp_phase_phase2_us\": " << p2_nic
      << ", \"cp_class_nic_us\": " << p2_nic
      << ", \"cp_class_shm_us\": " << p1_shm
      << ", \"cp_cell_phase1_shm_us\": " << p1_shm
      << ", \"cp_cell_phase2_nic_us\": " << p2_nic;
    return report_doc(scenario_block("s1", point_block(65536, m.str())));
  };
  const CompareResult r = run(doc(100.0, 60.0, 20.0), doc(150.0, 108.0, 22.0));
  EXPECT_FALSE(r.ok());

  ASSERT_EQ(r.attribution.invocations.size(), 1u);
  const auto& inv = r.attribution.invocations[0];
  EXPECT_DOUBLE_EQ(inv.delta_us, 50.0);
  EXPECT_NE(inv.headline().find("phase2/nic"), std::string::npos)
      << inv.headline();
  ASSERT_FALSE(inv.attributions.empty());
  // The top-ranked attribution is the injected cause, not the bystander.
  EXPECT_NE(inv.attributions[0].name.find("phase2"), std::string::npos);
  EXPECT_EQ(inv.attributions[0].unit, "us");
  EXPECT_NEAR(inv.attributions[0].delta, 48.0, 1e-9);
  EXPECT_NEAR(inv.attributions[0].share, 0.96, 1e-9);

  // The explanation surfaces as informational findings next to the drift.
  bool saw_headline = false;
  bool saw_cell = false;
  for (const auto& f : r.findings) {
    if (f.level != Finding::Level::kInfo) continue;
    if (f.text.rfind("attribution: ", 0) == 0) saw_headline = true;
    if (f.text.find("phase.resource phase2/nic") != std::string::npos &&
        f.text.find("% of delta") != std::string::npos) {
      saw_cell = true;
    }
  }
  EXPECT_TRUE(saw_headline);
  EXPECT_TRUE(saw_cell);
}

TEST(PerfCompare, AttributionRanksDecisionChangeFirst) {
  // A changed selector decision owns the whole delta: everything downstream
  // of a different algorithm choice is its consequence, so it outranks any
  // critical-path margin.
  const auto doc = [](double latency, const std::string& algo) {
    std::ostringstream m;
    m.precision(17);
    m << R"({"x": 64, "decision": "allgather=)" << algo
      << R"(,selector", "metrics": {"latency_us": )" << latency
      << ", \"cp_class_nic_us\": " << latency * 0.5 << "}}";
    return report_doc(scenario_block("s1", m.str()));
  };
  const CompareResult r = run(doc(100.0, "ring"), doc(140.0, "numa3"));
  EXPECT_FALSE(r.ok());
  ASSERT_EQ(r.attribution.invocations.size(), 1u);
  const auto& inv = r.attribution.invocations[0];
  ASSERT_FALSE(inv.attributions.empty());
  EXPECT_EQ(inv.attributions[0].category, "decision");
  EXPECT_EQ(inv.attributions[0].name, "allgather");
  EXPECT_DOUBLE_EQ(inv.attributions[0].share, 1.0);
  EXPECT_NE(inv.attributions[0].note.find("ring"), std::string::npos);
  EXPECT_NE(inv.attributions[0].note.find("numa3"), std::string::npos);

  bool saw_decision_line = false;
  for (const auto& f : r.findings) {
    if (f.level == Finding::Level::kInfo &&
        f.text.find("decision allgather:") != std::string::npos) {
      saw_decision_line = true;
    }
  }
  EXPECT_TRUE(saw_decision_line);
}

TEST(PerfCompare, AttributionDisabledWithZeroTopK) {
  CompareOptions opts;
  opts.attribution_top_k = 0;
  const CompareResult r =
      run(one_latency_report(100.0), one_latency_report(150.0), opts);
  EXPECT_FALSE(r.ok());  // drift still gates; only the explanation is off
  EXPECT_TRUE(r.attribution.invocations.empty());
  for (const auto& f : r.findings) {
    EXPECT_EQ(f.text.rfind("attribution: ", 0), std::string::npos) << f.text;
  }
}

TEST(PerfCompare, ReportNamesVerdicts) {
  const auto render = [](const CompareResult& r) {
    std::ostringstream os;
    write_compare_report(os, r, "a.json", "b.json");
    return os.str();
  };
  const std::string doc = one_latency_report(1.0);
  EXPECT_NE(render(run(doc, doc)).find("verdict: OK (no drift)"),
            std::string::npos);
  EXPECT_NE(render(run(doc, one_latency_report(2.0))).find("verdict: FAIL"),
            std::string::npos);
  CompareOptions opts;
  opts.bless = true;
  EXPECT_NE(
      render(run(doc, one_latency_report(2.0), opts)).find("blessed drift"),
      std::string::npos);
}

}  // namespace
}  // namespace hmca::perf
