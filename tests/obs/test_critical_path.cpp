// Critical-path analyzer on hand-built span graphs where the longest
// dependency chain is known by construction, plus a differential check of
// the indexed walk against the plain full-scan walk it replaced.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "hw/spec.hpp"
#include "obs/critical_path.hpp"
#include "obs/names.hpp"
#include "osu/harness.hpp"
#include "profiles/profiles.hpp"
#include "trace/trace.hpp"

namespace hmca::obs {
namespace {

using trace::Kind;
using trace::Span;

// Two ranks, three phases: rank 0 copies in (phase1, 2 us), ships the data
// over the NIC to rank 1 (phase2, 4 us), rank 1 copies out (phase3, 3 us).
// The nic_xfer's peer edge is what lets the walk jump from rank 1's
// copy_out back to rank 0.
std::vector<Span> pipeline_spans() {
  return {
      {0, Kind::kPhase, 0.0, 2e-6, -1, 0, "phase1"},
      {0, Kind::kPhase, 2e-6, 6e-6, -1, 0, "phase2"},
      {1, Kind::kPhase, 4e-6, 9e-6, -1, 0, "phase3"},
      {0, Kind::kCopyIn, 0.0, 2e-6, -1, 100, ""},
      {0, Kind::kNicXfer, 2e-6, 6e-6, 1, 400, ""},
      {1, Kind::kCopyOut, 6e-6, 9e-6, -1, 300, ""},
  };
}

TEST(CriticalPath, FollowsPeerEdgesAcrossRanks) {
  const auto rep = analyze_critical_path(pipeline_spans());
  ASSERT_EQ(rep.steps.size(), 3u);
  EXPECT_EQ(rep.steps[0].kind, Kind::kCopyIn);
  EXPECT_EQ(rep.steps[1].kind, Kind::kNicXfer);
  EXPECT_EQ(rep.steps[2].kind, Kind::kCopyOut);
  EXPECT_EQ(rep.steps[0].rank, 0);
  EXPECT_EQ(rep.steps[2].rank, 1);
  EXPECT_NEAR(rep.total, 9e-6, 1e-12);
}

TEST(CriticalPath, AttributesStepsToEnclosingPhases) {
  const auto rep = analyze_critical_path(pipeline_spans());
  ASSERT_EQ(rep.steps.size(), 3u);
  EXPECT_EQ(rep.steps[0].phase, "phase1");
  EXPECT_EQ(rep.steps[1].phase, "phase2");
  EXPECT_EQ(rep.steps[2].phase, "phase3");
  EXPECT_EQ(rep.dominant_kind, "nic_xfer");
  EXPECT_EQ(rep.dominant_phase, "phase2");
  EXPECT_NEAR(rep.by_phase.at("phase2"), 4e-6, 1e-12);
}

TEST(CriticalPath, SummaryNamesDominantKindAndPhase) {
  const auto s = analyze_critical_path(pipeline_spans()).summary();
  EXPECT_NE(s.find("nic_xfer"), std::string::npos) << s;
  EXPECT_NE(s.find("phase2"), std::string::npos) << s;
}

TEST(CriticalPath, WriteJsonCarriesDominantFields) {
  std::ostringstream os;
  analyze_critical_path(pipeline_spans()).write_json(os, 2);
  const std::string j = os.str();
  EXPECT_EQ(j.rfind("  {", 0), 0u);  // indent applies to the first line too
  EXPECT_NE(j.find("\"dominant_kind\": \"nic_xfer\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"dominant_phase\": \"phase2\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"total_us\": 9.000"), std::string::npos) << j;
}

TEST(CriticalPath, EmptySpanStreamYieldsEmptyReport) {
  const auto rep = analyze_critical_path({});
  EXPECT_TRUE(rep.empty());
  EXPECT_EQ(rep.summary(), "critical path: no spans");
}

TEST(CriticalPath, PureWaitPathFallsBackToWaitKind) {
  std::vector<Span> spans = {
      {0, Kind::kWait, 0.0, 5e-6, -1, 0, ""},
  };
  const auto rep = analyze_critical_path(spans);
  ASSERT_EQ(rep.steps.size(), 1u);
  EXPECT_EQ(rep.dominant_kind, "wait");
}

TEST(CriticalPath, OverlapFractionOfPipelinedPhases) {
  // phase2 union [2,6] us, phase3 union [4,9] us: 2 of phase3's 5 us are
  // overlapped -> 0.4.
  EXPECT_NEAR(phase_overlap_fraction(pipeline_spans()), 0.4, 1e-9);
}

TEST(CriticalPath, OverlapFractionZeroWithoutPhase3) {
  std::vector<Span> spans = {
      {0, Kind::kPhase, 0.0, 2e-6, -1, 0, "phase2"},
      {0, Kind::kCopyIn, 0.0, 2e-6, -1, 64, ""},
  };
  EXPECT_DOUBLE_EQ(phase_overlap_fraction(spans), 0.0);
}

TEST(CriticalPath, SubPicosecondSpansDoNotRevisitTheChain) {
  // Both rank-0 spans end within kEps of the other's start, so each is the
  // other's predecessor; a walk without a revisit stop returns B A B A B.
  std::vector<Span> spans = {
      {0, Kind::kCopyIn, 0.0, 0.5e-12, -1, 0, "A"},
      {0, Kind::kCopyIn, 0.5e-12, 1e-12, -1, 0, "B"},
      {1, Kind::kWait, 0.0, 0.1e-12, -1, 0, ""},
      {1, Kind::kWait, 0.0, 0.1e-12, -1, 0, ""},
      {1, Kind::kWait, 0.0, 0.1e-12, -1, 0, ""},
  };
  const auto rep = analyze_critical_path(spans);
  ASSERT_EQ(rep.steps.size(), 2u);
  EXPECT_EQ(rep.steps[0].label, "A");
  EXPECT_EQ(rep.steps[1].label, "B");
  EXPECT_DOUBLE_EQ(rep.total, 1e-12);
}

TEST(CriticalPath, EqualEndTimesGoToTheFirstSpanInScanOrder) {
  std::vector<Span> spans = {
      {0, Kind::kCopyIn, 0.0, 2e-6, -1, 0, "first"},
      {1, Kind::kCopyIn, 1e-6, 2e-6, 0, 0, "second"},
      {0, Kind::kCopyIn, 0.0, 2e-6, -1, 0, "third"},
      {0, Kind::kCopyOut, 2e-6, 3e-6, -1, 0, "last"},
  };
  const auto rep = analyze_critical_path(spans);
  ASSERT_EQ(rep.steps.size(), 2u);
  EXPECT_EQ(rep.steps[0].label, "first");
  EXPECT_EQ(rep.steps[1].label, "last");
}

// ---- Differential check against the full-scan walk ----

// The analyzer's original walk, kept as the oracle: every step scans the
// whole stream for the predecessor and again for the enclosing phase,
// O(steps x spans). It carries the same revisit stop as the indexed walk.
namespace reference {

constexpr double kEps = 1e-12;

bool is_link(const Span& s) {
  if (s.kind == Kind::kPhase) return false;
  if (s.kind == Kind::kTask && names::is_wrapped_task(s.label)) return false;
  return s.t1 > s.t0;
}

std::string phase_of(const std::vector<Span>& spans, const Span& step) {
  const Span* best = nullptr;
  const Span* best_exchange = nullptr;
  for (const auto& p : spans) {
    if (p.kind != Kind::kPhase || p.rank != step.rank) continue;
    if (names::is_annotation(p.label)) continue;
    if (p.t0 > step.t0 + kEps || p.t1 + kEps < step.t1) continue;
    if (p.label == names::kPhaseExchange) {
      if (best_exchange == nullptr ||
          p.t1 - p.t0 < best_exchange->t1 - best_exchange->t0) {
        best_exchange = &p;
      }
      continue;
    }
    if (best == nullptr || p.t1 - p.t0 < best->t1 - best->t0) best = &p;
  }
  if (best == nullptr) best = best_exchange;
  return best != nullptr ? best->label : std::string{};
}

CriticalPathReport analyze(const std::vector<Span>& spans) {
  CriticalPathReport rep;
  const Span* cur = nullptr;
  for (const auto& s : spans) {
    if (!is_link(s)) continue;
    if (cur == nullptr || s.t1 > cur->t1) cur = &s;
  }
  std::vector<bool> on_chain(spans.size());
  std::vector<const Span*> chain;
  while (cur != nullptr && !on_chain[cur - spans.data()]) {
    on_chain[cur - spans.data()] = true;
    chain.push_back(cur);
    const Span* best_related = nullptr;
    const Span* best_any = nullptr;
    for (const auto& s : spans) {
      if (!is_link(s) || &s == cur) continue;
      if (s.t1 > cur->t0 + kEps) continue;
      const bool related = s.rank == cur->rank || s.rank == cur->peer ||
                           s.peer == cur->rank;
      if (related && (best_related == nullptr || s.t1 > best_related->t1)) {
        best_related = &s;
      }
      if (best_any == nullptr || s.t1 > best_any->t1) best_any = &s;
    }
    cur = best_related != nullptr ? best_related : best_any;
  }
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    const Span& s = **it;
    const double d = s.t1 - s.t0;
    const std::string phase = phase_of(spans, s);
    rep.steps.push_back({s.rank, s.kind, s.t0, s.t1, s.peer, s.bytes, s.label,
                         phase});
    rep.total += d;
    rep.by_kind[trace::kind_name(s.kind)] += d;
    if (!phase.empty()) rep.by_phase[phase] += d;
    rep.by_phase_kind[phase][trace::kind_name(s.kind)] += d;
  }
  double best = -1;
  for (const auto& [kind, d] : rep.by_kind) {
    if (kind == trace::kind_name(Kind::kWait)) continue;
    if (d > best) {
      best = d;
      rep.dominant_kind = kind;
    }
  }
  if (rep.dominant_kind.empty() && !rep.by_kind.empty()) {
    rep.dominant_kind = rep.by_kind.begin()->first;
  }
  best = -1;
  for (const auto& [phase, d] : rep.by_phase) {
    if (d > best) {
      best = d;
      rep.dominant_phase = phase;
    }
  }
  return rep;
}

}  // namespace reference

// Exact equality, step by step: the indexed walk must pick the same spans
// in the same order, so every sum is bit-identical too.
void expect_same_report(const CriticalPathReport& got,
                        const CriticalPathReport& want,
                        const std::string& what) {
  ASSERT_EQ(got.steps.size(), want.steps.size()) << what;
  for (std::size_t i = 0; i < got.steps.size(); ++i) {
    const auto& g = got.steps[i];
    const auto& w = want.steps[i];
    const std::string at = what + ", step " + std::to_string(i);
    ASSERT_EQ(g.rank, w.rank) << at;
    ASSERT_EQ(g.kind, w.kind) << at;
    ASSERT_EQ(g.t0, w.t0) << at;
    ASSERT_EQ(g.t1, w.t1) << at;
    ASSERT_EQ(g.peer, w.peer) << at;
    ASSERT_EQ(g.bytes, w.bytes) << at;
    ASSERT_EQ(g.label, w.label) << at;
    ASSERT_EQ(g.phase, w.phase) << at;
  }
  EXPECT_EQ(got.total, want.total) << what;
  EXPECT_EQ(got.by_kind, want.by_kind) << what;
  EXPECT_EQ(got.by_phase, want.by_phase) << what;
  EXPECT_EQ(got.by_phase_kind, want.by_phase_kind) << what;
  EXPECT_EQ(got.dominant_kind, want.dominant_kind) << what;
  EXPECT_EQ(got.dominant_phase, want.dominant_phase) << what;
}

// A small stream that stresses the walk's tie and edge rules: times on a
// coarse grid (many equal t0/t1), a sub-kEps quantum in some seeds (spans
// shorter than the tolerance), peer = -1 and rank = -1 spans, wrapped
// container tasks, zero/negative-length spans, and nested paper,
// "exchange" and annotation phases.
std::vector<Span> random_spans(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto pick = [&](int n) {
    return static_cast<int>(rng() % static_cast<std::uint64_t>(n));
  };
  static const double kQuanta[] = {1e-6, 0.25e-12, 0.3e-12};
  static const char* const kPhases[] = {"phase1",    "phase2",  "phase3",
                                        "exchange",  "select:ring",
                                        "fault:rail0"};
  static const char* const kTasks[] = {"task:wrapped:ring", "task:wrapped",
                                       "task:copy#c1", "task:send:ring"};
  static const Kind kLinkKinds[] = {Kind::kIsend,   Kind::kIrecv,
                                    Kind::kWait,    Kind::kCopyIn,
                                    Kind::kCopyOut, Kind::kCmaCopy,
                                    Kind::kNicXfer, Kind::kCompute};
  const double q = kQuanta[pick(3)];
  const int ranks = 1 + pick(4);
  const int n = 1 + pick(60);
  std::vector<Span> spans;
  for (int i = 0; i < n; ++i) {
    Span s{pick(16) == 0 ? -1 : pick(ranks), Kind::kCompute, 0, 0,
           pick(3) == 0 ? pick(ranks) : -1,
           static_cast<std::size_t>(pick(4096)), ""};
    const int roll = pick(10);
    if (roll < 2) {
      s.kind = Kind::kPhase;
      s.label = kPhases[pick(6)];
      s.t0 = q * pick(6);
      s.t1 = s.t0 + q * (1 + pick(8));
    } else {
      if (roll == 2) {
        s.kind = Kind::kTask;
        s.label = kTasks[pick(4)];
      } else {
        s.kind = kLinkKinds[pick(8)];
      }
      s.t0 = q * pick(10);
      s.t1 = s.t0 + q * (pick(8) == 0 ? -1 : pick(5));
    }
    spans.push_back(std::move(s));
  }
  return spans;
}

TEST(CriticalPathDifferential, RandomStreamsMatchTheFullScan) {
  for (std::uint64_t seed = 1; seed <= 4000; ++seed) {
    const auto spans = random_spans(seed);
    expect_same_report(analyze_critical_path(spans),
                       reference::analyze(spans),
                       "seed " + std::to_string(seed));
    if (HasFatalFailure()) return;
  }
}

hw::ClusterSpec shape(int nodes, int ppn) {
  hw::ClusterSpec spec;
  spec.nodes = nodes;
  spec.ppn = ppn;
  return spec;
}

TEST(CriticalPathDifferential, AllgatherCapturesMatchTheFullScan) {
  for (const std::size_t msg : {std::size_t{4096}, std::size_t{65536}}) {
    trace::Tracer tracer;
    osu::measure_allgather(shape(4, 8), profiles::by_name("mha").allgather,
                           msg, &tracer);
    const auto& spans = tracer.spans();
    const auto rep = analyze_critical_path(spans);
    EXPECT_FALSE(rep.empty());
    expect_same_report(rep, reference::analyze(spans),
                       "mha allgather 4x8, " + std::to_string(msg) + " B");
  }
}

TEST(CriticalPathDifferential, AllreduceCaptureMatchesTheFullScan) {
  trace::Tracer tracer;
  osu::measure_allreduce(shape(2, 8), profiles::by_name("hpcx").allreduce,
                         65536, &tracer);
  const auto& spans = tracer.spans();
  const auto rep = analyze_critical_path(spans);
  EXPECT_FALSE(rep.empty());
  expect_same_report(rep, reference::analyze(spans),
                     "hpcx allreduce 2x8, 65536 B");
}

TEST(CriticalPath, OverlapFractionAcrossInterleavedUnions) {
  // phase2 union {[0,2], [3,5], [6,10]} us, phase3 union {[1,4], [4.5,7],
  // [9,12]} us: intervals of each union overlap two of the other's.
  // Overlap 1 + 1 + 0.5 + 1 + 1 = 4.5 of phase3's 8.5 us.
  std::vector<Span> spans;
  const auto add = [&](int rank, const char* phase, double a, double b) {
    spans.push_back({rank, Kind::kPhase, a * 1e-6, b * 1e-6, -1, 0, phase});
  };
  add(0, "phase2", 0, 2);
  add(0, "phase2", 3, 5);
  add(0, "phase2", 6, 10);
  add(1, "phase3", 1, 4);
  add(1, "phase3", 4.5, 7);
  add(1, "phase3", 9, 12);
  EXPECT_NEAR(phase_overlap_fraction(spans), 4.5 / 8.5, 1e-9);
}

}  // namespace
}  // namespace hmca::obs
