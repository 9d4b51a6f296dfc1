// Structural claims of the dataflow refactor on MHA worlds: the phase-1
// tail no longer dominates the critical path at scale, phase-2/3 overlap
// is strictly higher than the barriered baseline (with the telemetry
// cross-check reconciling), and streaming never loses to barriers.
// `ctest -L dataflow` runs this suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "coll/allgather.hpp"
#include "coll/graph.hpp"
#include "core/hierarchical.hpp"
#include "hw/spec.hpp"
#include "obs/critical_path.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "obs/utilization.hpp"
#include "osu/harness.hpp"
#include "trace/trace.hpp"

namespace hmca::core {
namespace {

coll::AllgatherFn fn_graph() {
  return [](mpi::Comm& c, int r, hw::BufView s, hw::BufView rv, std::size_t m,
            bool ip) {
    return allgather_hierarchical(c, r, s, rv, m, ip, HierOptions{});
  };
}

coll::AllgatherFn fn_barrier() {
  return [](mpi::Comm& c, int r, hw::BufView s, hw::BufView rv, std::size_t m,
            bool ip) {
    HierOptions o;
    o.overlap = false;
    return allgather_hierarchical(c, r, s, rv, m, ip, o);
  };
}

struct Capture {
  trace::Tracer tracer;
  obs::Metrics metrics;
  std::vector<obs::ResourceSample> samples;
  double seconds = 0;
};

void run_mha(int nodes, int ppn, std::size_t msg, const coll::AllgatherFn& fn,
             Capture& c) {
  obs::CollectSink sink(&c.tracer, &c.metrics, &c.samples);
  c.seconds =
      osu::measure_allgather(hw::ClusterSpec::thor(nodes, ppn), fn, msg, sink);
}

// ---- Satellite: Phase-1 tail vs. critical path at 512 ranks ----

TEST(Pipeline, Phase1NoLongerDominatesCriticalPathAt512Ranks) {
  // 16 nodes x 32 ppn. Under strict barriers the slowest member's shm
  // publish (phase 1) gates every leader exchange; with chunk streaming
  // the path runs through the inter-node phase instead.
  Capture c;
  run_mha(16, 32, 256 * 1024, fn_graph(), c);
  ASSERT_GT(c.seconds, 0.0);
  const auto report = obs::analyze_critical_path(c.tracer.spans());
  ASSERT_FALSE(report.empty());
  EXPECT_NE(report.dominant_phase, "phase1") << report.summary();

  const auto* depth = c.metrics.histogram("coll.pipeline_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_GE(depth->max, 2.0);  // chunks actually ran concurrently somewhere
}

// ---- Acceptance: overlap strictly higher than the barriered baseline ----

TEST(Pipeline, OverlapBeatsBarrierOnFig12Shape) {
  // Fig. 12 shape: 8 nodes x 32 ppn, rendezvous-sized message.
  const std::size_t msg = 512 * 1024;
  Capture graph, barrier;
  run_mha(8, 32, msg, fn_graph(), graph);
  run_mha(8, 32, msg, fn_barrier(), barrier);
  ASSERT_GT(graph.seconds, 0.0);
  ASSERT_GT(barrier.seconds, 0.0);

  const double graph_overlap =
      obs::phase_overlap_fraction(graph.tracer.spans());
  const double barrier_overlap =
      obs::phase_overlap_fraction(barrier.tracer.spans());
  EXPECT_GT(graph_overlap, barrier_overlap);
  EXPECT_GT(graph_overlap, 0.0);

  // Telemetry cross-check: the utilization sweep re-derives the overlap
  // with an independent algorithm; the two must reconcile.
  const auto util = obs::analyze_utilization(graph.tracer.spans(),
                                             graph.samples, graph.seconds);
  EXPECT_NEAR(util.phase_overlap, graph_overlap, 1e-9);

  // Streaming must not lose to the barriered baseline on its home shape.
  EXPECT_LE(graph.seconds, barrier.seconds);
}

TEST(Pipeline, StreamingNeverLosesAcrossShapes) {
  for (const auto& [nodes, ppn, msg] :
       {std::tuple{2, 4, std::size_t{65536}},
        std::tuple{4, 8, std::size_t{262144}},
        std::tuple{3, 2, std::size_t{1048576}}}) {
    const double graph = osu::measure_allgather(
        hw::ClusterSpec::thor(nodes, ppn), fn_graph(), msg);
    const double barrier = osu::measure_allgather(
        hw::ClusterSpec::thor(nodes, ppn), fn_barrier(), msg);
    EXPECT_LE(graph, barrier * 1.0001)
        << "nodes=" << nodes << " ppn=" << ppn << " msg=" << msg;
  }
}

// ---- Barrier mode: the phase-3 fence ----

// Whether every leader's first phase-3 publish starts no earlier than its
// last phase-2 recv ends. Counts the leaders that published into `leaders`.
bool publishes_fenced(const std::vector<trace::Span>& spans, int& leaders) {
  struct Times {
    double last_recv = -1.0;
    double first_pub = std::numeric_limits<double>::infinity();
  };
  std::map<int, Times> by_rank;
  for (const auto& s : spans) {
    if (s.kind != trace::Kind::kTask) continue;
    if (s.label.find(":p2 recv ") != std::string::npos) {
      auto& t = by_rank[s.rank];
      t.last_recv = std::max(t.last_recv, s.t1);
    } else if (s.label.find(":p3 pub ") != std::string::npos) {
      auto& t = by_rank[s.rank];
      t.first_pub = std::min(t.first_pub, s.t0);
    }
  }
  leaders = 0;
  bool fenced = true;
  for (const auto& [rank, t] : by_rank) {
    if (std::isinf(t.first_pub)) continue;
    ++leaders;
    fenced = fenced && t.first_pub >= t.last_recv;
  }
  return fenced;
}

TEST(Pipeline, BarrierModeFencesPublishesBehindTheLastRecv) {
  // 4 nodes x 4 ppn at 64 KiB: 256 KiB node blocks split into four chunks
  // when overlapped, so the overlapped graph publishes while later recvs
  // are still in flight — the control that shows the check can fail.
  for (const Phase2Algo algo : {Phase2Algo::kRing, Phase2Algo::kRD}) {
    const auto run = [algo](bool overlap) {
      HierOptions o;
      o.phase2 = algo;
      o.overlap = overlap;
      trace::Tracer tracer;
      osu::measure_allgather(
          hw::ClusterSpec::thor(4, 4),
          [o](mpi::Comm& c, int r, hw::BufView s, hw::BufView rv,
              std::size_t m, bool ip) {
            return allgather_hierarchical(c, r, s, rv, m, ip, o);
          },
          64 * 1024, &tracer);
      return tracer.spans();
    };
    const char* name = algo == Phase2Algo::kRing ? "ring" : "rd";
    int leaders = 0;
    EXPECT_TRUE(publishes_fenced(run(false), leaders)) << name;
    EXPECT_EQ(leaders, 4) << name;
    EXPECT_FALSE(publishes_fenced(run(true), leaders)) << name;
    EXPECT_EQ(leaders, 4) << name;
  }
}

// ---- Phase-3 drain order: one member's span stream, pinned ----

// Every span of global rank `rank` as "kind label t0 t1", one per line, in
// recording order, with times printed to round-trip exactly.
std::string span_stream(const std::vector<trace::Span>& spans, int rank) {
  std::string out;
  char buf[64];
  for (const auto& s : spans) {
    if (s.rank != rank) continue;
    out += trace::kind_name(s.kind);
    out += ' ';
    out += s.label;
    std::snprintf(buf, sizeof buf, " %.17g %.17g\n", s.t0, s.t1);
    out += buf;
  }
  return out;
}

TEST(Pipeline, MemberSpanStreamsMatchPinnedOrder) {
  // A member's phase-3 drains queue on its one-slot shm lane as the
  // leader's publications release them, so when each drain is released and
  // admitted is visible in its span stream: every label, start and end.
  // This pins the stream of member rank 5 (node 1) at 4 nodes x 4 ppn and
  // 256 KiB, where the 1 MiB node blocks split into 16 chunks, for the
  // chunked Ring and RD phase 2 and for node-aware Bruck. A change that
  // moves any drain's release, admission or timing shows up as a differing
  // line.
  constexpr int kMember = 5;
  const auto hier = [](Phase2Algo algo) -> coll::AllgatherFn {
    HierOptions o;
    o.phase2 = algo;
    return [o](mpi::Comm& c, int r, hw::BufView s, hw::BufView rv,
               std::size_t m, bool ip) {
      return allgather_hierarchical(c, r, s, rv, m, ip, o);
    };
  };
  const std::vector<std::pair<std::string, coll::AllgatherFn>> cases = {
      {"hier ring", hier(Phase2Algo::kRing)},
      {"hier rd", hier(Phase2Algo::kRD)},
      {"node_aware_bruck", coll::allgather_node_aware_bruck},
  };
  std::string actual;
  for (const auto& [name, fn] : cases) {
    trace::Tracer tracer;
    osu::measure_allgather(hw::ClusterSpec::thor(4, 4), fn, 256 * 1024,
                           &tracer);
    actual += "# " + name + '\n';
    actual += span_stream(tracer.spans(), kMember);
  }
  std::ifstream in(std::string(HMCA_TEST_SRCDIR) +
                   "/core/golden/member_spans.txt");
  ASSERT_TRUE(in) << "missing golden file";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(actual, golden.str());
}

}  // namespace
}  // namespace hmca::core
