// Differential attribution (obs/diff.hpp) on hand-built runs where the
// injected cause is known by construction: the top-ranked attribution must
// name the phase and resource class (or the changed decision) that was
// actually perturbed, and the serialized report must be byte-identical
// across repeated writes.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/diff.hpp"
#include "trace/trace.hpp"

namespace hmca::obs {
namespace {

using trace::Kind;
using trace::Span;

/// A healthy baseline invocation: 200 us latency, the critical path split
/// 50 us phase1/shm + 100 us phase2/nic, one rail, a ring decision.
RunSummary baseline() {
  RunSummary rs;
  rs.id = "fig13";
  rs.op = "allgather";
  rs.subject = "mha";
  rs.msg_bytes = 65536;
  rs.latency_us = 200;
  rs.critical_path_us = 150;
  rs.world = "nodes=2,ppn=2,hcas=2,sockets=1";
  rs.decisions = {"allgather=ring,cost"};
  rs.phase_us = {{"phase1", 50}, {"phase2", 100}};
  rs.resource_us = {{"shm", 50}, {"nic", 100}};
  rs.phase_resource_us = {{"phase1", {{"shm", 50}}},
                          {"phase2", {{"nic", 100}}}};
  rs.rail_busy_us = {{"node0/rail0", 80}, {"node0/rail1", 80}};
  rs.rail_bytes = {{"node0/rail0", 1 << 20}, {"node0/rail1", 1 << 20}};
  rs.phase_rail_busy_us = {{"phase2", {{"node0/rail0", 80},
                                       {"node0/rail1", 80}}}};
  rs.task_us = {{"task:rdma:hca b1", 100}, {"task:shm_in:stage", 50}};
  rs.counters = {{"net.retries", 0}};
  return rs;
}

TEST(ObsDiff, InjectedPhase2NicSlowdownIsTopAttribution) {
  const RunSummary base = baseline();
  RunSummary next = baseline();
  // Inject: +50 us of nic time in phase2, carried through every surface
  // the way a real slow rail would be.
  next.latency_us = 250;
  next.critical_path_us = 200;
  next.phase_us["phase2"] = 150;
  next.resource_us["nic"] = 150;
  next.phase_resource_us["phase2"]["nic"] = 150;
  next.rail_busy_us["node0/rail1"] = 130;
  next.phase_rail_busy_us["phase2"]["node0/rail1"] = 130;
  next.task_us["task:rdma:hca b1"] = 150;

  const DiffReport rep = diff_runs({base}, {next});
  ASSERT_EQ(rep.invocations.size(), 1u);
  const InvocationDiff& inv = rep.invocations[0];
  EXPECT_EQ(inv.key, "allgather/mha/65536");
  EXPECT_NEAR(inv.delta_us, 50.0, 1e-9);
  EXPECT_NEAR(inv.rel, 0.25, 1e-12);
  EXPECT_TRUE(inv.world_mismatch.empty());

  // Every top-ranked attribution names the injected cause: phase2 and/or
  // the nic class, each owning 100% of the delta. Rail busy (a parallel
  // sum, not additive toward latency) must rank below all of them.
  ASSERT_GE(inv.attributions.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    const Attribution& a = inv.attributions[static_cast<std::size_t>(i)];
    EXPECT_TRUE(a.name.find("phase2") != std::string::npos ||
                a.name.find("nic") != std::string::npos ||
                a.name.find("rdma") != std::string::npos)
        << "rank " << i << " attribution: " << a.category << " " << a.name;
    EXPECT_NE(a.category, "rail");
    EXPECT_NE(a.category, "phase.rail");
    EXPECT_NEAR(a.delta, 50.0, 1e-9);
    EXPECT_NEAR(a.share, 1.0, 1e-9);
  }

  // The headline pins the joint cell and corroborates with the hot rail.
  const std::string h = inv.headline();
  EXPECT_NE(h.find("100% of delta on phase.resource phase2/nic"),
            std::string::npos)
      << h;
  EXPECT_NE(h.find("node0/rail1"), std::string::npos) << h;

  // Rail attributions are present as context but never claim a share.
  bool saw_rail = false;
  for (const auto& a : inv.attributions) {
    if (a.category == "rail" || a.category == "phase.rail") {
      saw_rail = true;
      EXPECT_EQ(a.share, 0.0) << a.category << " " << a.name;
    }
  }
  EXPECT_TRUE(saw_rail);
}

TEST(ObsDiff, DecisionChangeOwnsTheWholeDelta) {
  const RunSummary base = baseline();
  RunSummary next = baseline();
  next.latency_us = 236;
  next.decisions = {"allgather=numa3,cost"};

  const DiffReport rep = diff_runs({base}, {next});
  ASSERT_EQ(rep.invocations.size(), 1u);
  const InvocationDiff& inv = rep.invocations[0];
  ASSERT_FALSE(inv.attributions.empty());
  const Attribution& top = inv.attributions[0];
  EXPECT_EQ(top.category, "decision");
  EXPECT_EQ(top.name, "allgather");
  EXPECT_EQ(top.note, "ring,cost -> numa3,cost");
  EXPECT_NEAR(top.delta, 36.0, 1e-9);
  EXPECT_NEAR(top.share, 1.0, 1e-9);
  EXPECT_NE(inv.headline().find("decision allgather: ring,cost -> numa3,cost"),
            std::string::npos)
      << inv.headline();
}

TEST(ObsDiff, WorldMismatchIsFlaggedNotAttributed) {
  const RunSummary base = baseline();
  RunSummary next = baseline();
  next.world = "nodes=4,ppn=2,hcas=2,sockets=1";
  next.latency_us = 400;

  const DiffReport rep = diff_runs({base}, {next});
  ASSERT_EQ(rep.invocations.size(), 1u);
  EXPECT_TRUE(rep.has_world_mismatch());
  EXPECT_NE(rep.invocations[0].world_mismatch.find("world mismatch"),
            std::string::npos);
  EXPECT_NE(rep.invocations[0].headline().find("shape change"),
            std::string::npos);
}

TEST(ObsDiff, MissingRailDiffsAgainstZeroWithNote) {
  const RunSummary base = baseline();
  RunSummary next = baseline();
  next.rail_busy_us.erase("node0/rail1");
  next.rail_bytes.erase("node0/rail1");

  const DiffReport rep = diff_runs({base}, {next});
  ASSERT_EQ(rep.invocations.size(), 1u);
  const InvocationDiff& inv = rep.invocations[0];
  ASSERT_FALSE(inv.notes.empty());
  EXPECT_NE(inv.notes[0].find("rail sets differ"), std::string::npos);
  bool saw = false;
  for (const auto& a : inv.attributions) {
    if (a.category == "rail" && a.name == "node0/rail1") {
      saw = true;
      EXPECT_EQ(a.next, 0.0);
      EXPECT_EQ(a.note, "only in base run");
    }
  }
  EXPECT_TRUE(saw);
}

TEST(ObsDiff, UnmatchedInvocationsLandInOnlyLists) {
  RunSummary extra = baseline();
  extra.msg_bytes = 1 << 20;
  const DiffReport rep = diff_runs({baseline(), extra}, {baseline()});
  ASSERT_EQ(rep.invocations.size(), 1u);
  ASSERT_EQ(rep.only_base.size(), 1u);
  EXPECT_EQ(rep.only_base[0], "allgather/mha/1048576");
  EXPECT_TRUE(rep.only_next.empty());
}

TEST(ObsDiff, JsonBytesAreIdenticalAcrossWrites) {
  const RunSummary base = baseline();
  RunSummary next = baseline();
  next.latency_us = 250;
  next.phase_resource_us["phase2"]["nic"] = 150;
  next.decisions = {"allgather=numa3,cost"};
  const DiffReport rep = diff_runs({base}, {next});

  std::ostringstream a, b;
  rep.write_json(a);
  rep.write_json(b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("\"format\": \"hmca-diff-1\""), std::string::npos);

  // A fresh diff of the same inputs also serializes to the same bytes.
  std::ostringstream c;
  diff_runs({base}, {next}).write_json(c);
  EXPECT_EQ(a.str(), c.str());

  std::ostringstream t1, t2, h1, h2;
  rep.write_text(t1);
  rep.write_text(t2);
  rep.write_html(h1);
  rep.write_html(h2);
  EXPECT_EQ(t1.str(), t2.str());
  EXPECT_EQ(h1.str(), h2.str());
}

TEST(ObsDiff, SummarizeInvocationClassifiesTaskSpans) {
  // One phase2 window containing one rdma task: the critical path is the
  // task span, and its time must land in the nic class via the label's
  // task-kind token (kTask itself carries no class).
  std::vector<Span> spans = {
      {0, Kind::kPhase, 0.0, 150e-6, -1, 0, "phase2"},
      {0, Kind::kTask, 10e-6, 110e-6, -1, 65536, "task:rdma:hca b1#c0"},
      {0, Kind::kPhase, 0.0, 0.0, -1, 0, "select:allgather=ring,cost"},
  };
  const RunSummary rs = summarize_invocation(
      "fig13", "allgather", "mha", 65536, spans, {}, nullptr, 150e-6);
  EXPECT_NEAR(rs.latency_us, 150.0, 1e-9);
  ASSERT_EQ(rs.decisions.size(), 1u);
  EXPECT_EQ(rs.decisions[0], "allgather=ring,cost");
  ASSERT_TRUE(rs.resource_us.count("nic"));
  EXPECT_NEAR(rs.resource_us.at("nic"), 100.0, 1e-6);
  ASSERT_TRUE(rs.phase_resource_us.count("phase2"));
  EXPECT_NEAR(rs.phase_resource_us.at("phase2").at("nic"), 100.0, 1e-6);
  // Chunk suffix stripped, so different chunkings align.
  ASSERT_TRUE(rs.task_us.count("task:rdma:hca b1"));
  EXPECT_NEAR(rs.task_us.at("task:rdma:hca b1"), 100.0, 1e-6);
}

TEST(ObsDiff, RunSummaryFromMetricsParsesAttributionSurfaces) {
  const std::map<std::string, double> metrics = {
      {"latency_us", 250},
      {"critical_path_us", 200},
      {"overlap_fraction", 0.5},
      {"cp_phase_phase2_us", 150},
      {"cp_class_nic_us", 150},
      {"cp_cell_phase2_nic_us", 150},
      {"cp_kind_cma_copy_us", 30},
      {"net_rail0_bytes", 4096},
      {"rail0_busy_frac", 0.4},
      {"net_retries", 2},
  };
  const RunSummary rs = run_summary_from_metrics("fig13", "allgather", "mha",
                                                 65536, metrics, "ring");
  EXPECT_NEAR(rs.latency_us, 250, 1e-12);
  EXPECT_NEAR(rs.critical_path_us, 200, 1e-12);
  EXPECT_NEAR(rs.overlap_fraction, 0.5, 1e-12);
  EXPECT_NEAR(rs.phase_us.at("phase2"), 150, 1e-12);
  // cp_class_ feeds the class directly; cp_kind_ folds through the kind's
  // class (cma_copy -> shm).
  EXPECT_NEAR(rs.resource_us.at("nic"), 150, 1e-12);
  EXPECT_NEAR(rs.resource_us.at("shm"), 30, 1e-12);
  EXPECT_NEAR(rs.phase_resource_us.at("phase2").at("nic"), 150, 1e-12);
  EXPECT_NEAR(rs.rail_bytes.at("rail0"), 4096, 1e-12);
  EXPECT_NEAR(rs.rail_busy_us.at("rail0"), 0.4 * 250, 1e-9);
  EXPECT_NEAR(rs.counters.at("net_retries"), 2, 1e-12);
  ASSERT_EQ(rs.decisions.size(), 1u);
  EXPECT_EQ(rs.decisions[0], "ring");
}

}  // namespace
}  // namespace hmca::obs
