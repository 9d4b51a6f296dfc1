// The declarative HierarchySpec API (core/hierarchy.hpp): spec validation
// and derivation, JSON round-trips, resolution invariants (partition,
// nesting, leaders), depth-2 byte-identity with MHA-inter and a pinned
// depth-3 virtual-time table, n-level correctness on custom/adapter-group
// levels, the selector's depth routing, HMCA_HIERARCHY, and the
// multi-socket win the deeper hierarchy exists for.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/hier_detail.hpp"
#include "core/hierarchy.hpp"
#include "core/selector.hpp"
#include "obs/critical_path.hpp"
#include "obs/sink.hpp"
#include "osu/env.hpp"
#include "osu/harness.hpp"
#include "testing/coll_testing.hpp"
#include "trace/trace.hpp"

namespace hmca::core {
namespace {

class EnvGuard {
 public:
  EnvGuard(const char* var, const char* value) : var_(var) {
    ::setenv(var, value, /*overwrite=*/1);
  }
  ~EnvGuard() { ::unsetenv(var_); }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  const char* var_;
};

HierLevel level(LevelKind k, LevelTransport t = LevelTransport::kAuto,
                std::vector<int> firsts = {}) {
  HierLevel l;
  l.kind = k;
  l.transport = t;
  l.custom_firsts = std::move(firsts);
  return l;
}

coll::AllgatherFn fn_spec(HierarchySpec hs, HierarchyOptions opts = {}) {
  return [hs, opts](mpi::Comm& c, int r, hw::BufView s, hw::BufView rv,
                    std::size_t m, bool ip) {
    return allgather_hierarchy(c, r, s, rv, m, ip, hs, opts);
  };
}

/// Data-mode correctness check over an arbitrary ClusterSpec (the shared
/// check_allgather helper is hardwired to flat thor nodes).
void check_hier(hw::ClusterSpec spec, const HierarchySpec& hs,
                std::size_t msg, bool in_place = false) {
  spec.carry_data = true;
  sim::Engine eng;
  mpi::World world(eng, spec);
  auto& comm = world.comm_world();
  const int p = comm.size();
  std::vector<hw::Buffer> sends, recvs;
  for (int r = 0; r < p; ++r) {
    auto recv = hw::Buffer::data(msg * static_cast<std::size_t>(p));
    hw::Buffer send = hw::Buffer::data(in_place ? 0 : msg);
    for (std::size_t i = 0; i < msg; ++i) {
      const auto b = hmca::testing::block_byte(r, i);
      if (in_place) {
        recv.bytes()[static_cast<std::size_t>(r) * msg + i] = b;
      } else {
        send.bytes()[i] = b;
      }
    }
    sends.push_back(std::move(send));
    recvs.push_back(std::move(recv));
  }
  for (int r = 0; r < p; ++r) {
    eng.spawn(hmca::testing::ag_rank_program(
        comm, fn_spec(hs), r, sends[static_cast<std::size_t>(r)].view(),
        recvs[static_cast<std::size_t>(r)].view(), msg, in_place));
  }
  eng.run();
  for (int r = 0; r < p; ++r) {
    for (int src = 0; src < p; ++src) {
      for (std::size_t i = 0; i < msg; ++i) {
        const auto got = recvs[static_cast<std::size_t>(r)]
                             .bytes()[static_cast<std::size_t>(src) * msg + i];
        ASSERT_EQ(got, hmca::testing::block_byte(src, i))
            << "rank " << r << " block " << src << " byte " << i;
      }
    }
  }
}

sim::Task<void> bc_rank(mpi::Comm& comm, int r, hw::BufView d,
                        HierarchySpec hs, std::size_t chunk) {
  co_await bcast_hierarchy(comm, r, /*root=*/0, d, std::move(hs), chunk);
}

void check_bcast(hw::ClusterSpec spec, const HierarchySpec& hs,
                 std::size_t len, std::size_t chunk) {
  spec.carry_data = true;
  sim::Engine eng;
  mpi::World world(eng, spec);
  auto& comm = world.comm_world();
  const int p = comm.size();
  std::vector<hw::Buffer> bufs;
  for (int r = 0; r < p; ++r) {
    auto b = hw::Buffer::data(len);
    if (r == 0) {
      for (std::size_t i = 0; i < len; ++i) {
        b.bytes()[i] = hmca::testing::block_byte(0, i);
      }
    }
    bufs.push_back(std::move(b));
  }
  for (int r = 0; r < p; ++r) {
    eng.spawn(bc_rank(comm, r, bufs[static_cast<std::size_t>(r)].view(), hs,
                      chunk));
  }
  eng.run();
  for (int r = 0; r < p; ++r) {
    for (std::size_t i = 0; i < len; ++i) {
      ASSERT_EQ(bufs[static_cast<std::size_t>(r)].bytes()[i],
                hmca::testing::block_byte(0, i))
          << "rank " << r << " byte " << i;
    }
  }
}

// ---- Spec validation and derivation ----

TEST(HierarchySpecTest, MhaIsAValidDepth2Spec) {
  const auto s = HierarchySpec::mha();
  EXPECT_EQ(s.depth(), 2);
  EXPECT_NO_THROW(s.validate());
  EXPECT_EQ(s.levels.front().kind, LevelKind::kNode);
  EXPECT_EQ(s.levels.back().kind, LevelKind::kCluster);
}

TEST(HierarchySpecTest, ValidationRejectsMalformedShapes) {
  HierarchySpec s;
  EXPECT_THROW(s.validate(), HierarchyError);  // empty
  s.levels = {level(LevelKind::kNode)};
  EXPECT_THROW(s.validate(), HierarchyError);  // depth 1
  s.levels = {level(LevelKind::kCluster), level(LevelKind::kNode)};
  EXPECT_THROW(s.validate(), HierarchyError);  // cluster not outermost
  s.levels = {level(LevelKind::kSocket), level(LevelKind::kCluster)};
  EXPECT_THROW(s.validate(), HierarchyError);  // node missing
  s.levels = {level(LevelKind::kNode), level(LevelKind::kNode),
              level(LevelKind::kCluster)};
  EXPECT_THROW(s.validate(), HierarchyError);  // node twice
  s.levels = {level(LevelKind::kCustom, LevelTransport::kAuto, {1, 2}),
              level(LevelKind::kNode), level(LevelKind::kCluster)};
  EXPECT_THROW(s.validate(), HierarchyError);  // firsts must start at 0
  s.levels = {level(LevelKind::kCustom, LevelTransport::kAuto, {0, 2, 2}),
              level(LevelKind::kNode), level(LevelKind::kCluster)};
  EXPECT_THROW(s.validate(), HierarchyError);  // not strictly ascending
  s.levels = {level(LevelKind::kSocket, LevelTransport::kAuto, {0, 2}),
              level(LevelKind::kNode), level(LevelKind::kCluster)};
  EXPECT_THROW(s.validate(), HierarchyError);  // firsts on non-custom
}

TEST(HierarchySpecTest, TransportPlacementRules) {
  // RD belongs to the cluster level only.
  HierarchySpec s;
  s.levels = {level(LevelKind::kNode, LevelTransport::kRd),
              level(LevelKind::kCluster)};
  EXPECT_THROW(s.validate(), HierarchyError);
  s.levels = {level(LevelKind::kNode),
              level(LevelKind::kCluster, LevelTransport::kRd)};
  EXPECT_NO_THROW(s.validate());
  // MHA-intra is an innermost-level transport.
  s.levels = {level(LevelKind::kSocket),
              level(LevelKind::kNode, LevelTransport::kMhaIntra),
              level(LevelKind::kCluster)};
  EXPECT_THROW(s.validate(), HierarchyError);
  s.levels = {level(LevelKind::kSocket, LevelTransport::kMhaIntra),
              level(LevelKind::kNode), level(LevelKind::kCluster)};
  EXPECT_NO_THROW(s.validate());
  // Shm: innermost of a depth-2 spec, or any intermediate level.
  s.levels = {level(LevelKind::kNode, LevelTransport::kShm),
              level(LevelKind::kCluster)};
  EXPECT_NO_THROW(s.validate());
  s.levels = {level(LevelKind::kSocket, LevelTransport::kShm),
              level(LevelKind::kNode), level(LevelKind::kCluster)};
  EXPECT_THROW(s.validate(), HierarchyError);
  s.levels = {level(LevelKind::kSocket),
              level(LevelKind::kNode, LevelTransport::kShm),
              level(LevelKind::kCluster)};
  EXPECT_NO_THROW(s.validate());
}

TEST(HierarchySpecTest, DeriveFollowsTopology) {
  const auto flat = hw::ClusterSpec::thor(4, 8);
  const auto numa = hw::ClusterSpec::thor_numa(4, 8);
  EXPECT_EQ(HierarchySpec::derive(flat, 0).depth(), 2);
  EXPECT_EQ(HierarchySpec::derive(numa, 0).depth(), 3);
  EXPECT_EQ(HierarchySpec::derive(numa, 2).depth(), 2);
  // Explicit depth 3 on flat nodes collapses: a one-socket level is a
  // no-op stage.
  EXPECT_EQ(HierarchySpec::derive(flat, 3).depth(), 2);
  EXPECT_THROW(HierarchySpec::derive(flat, 4), HierarchyError);
  EXPECT_THROW(HierarchySpec::derive(flat, 1), HierarchyError);
}

TEST(HierarchySpecTest, JsonRoundTrip) {
  HierarchySpec s;
  s.levels = {level(LevelKind::kCustom, LevelTransport::kCma, {0, 2}),
              level(LevelKind::kNode),
              level(LevelKind::kCluster, LevelTransport::kRing)};
  const std::string text = s.to_json();
  const auto back = HierarchySpec::from_json(text);
  EXPECT_EQ(back.depth(), 3);
  EXPECT_EQ(back.levels[0].kind, LevelKind::kCustom);
  EXPECT_EQ(back.levels[0].transport, LevelTransport::kCma);
  EXPECT_EQ(back.levels[0].custom_firsts, (std::vector<int>{0, 2}));
  EXPECT_EQ(back.levels[2].transport, LevelTransport::kRing);
  EXPECT_EQ(back.to_json(), text);

  EXPECT_THROW(HierarchySpec::from_json("not json"), HierarchyError);
  EXPECT_THROW(HierarchySpec::from_json("{}"), HierarchyError);
  EXPECT_THROW(HierarchySpec::from_json(
                   R"({"levels": [{"kind": "flux"}, {"kind": "cluster"}]})"),
               HierarchyError);

  // Every group is led by its first rank: documents state it on every
  // level, and any other leader policy is refused by name.
  EXPECT_EQ(HierarchySpec::mha().to_json(),
            R"({"levels": [{"kind": "node", "transport": "auto", )"
            R"("leader": "first-rank"}, {"kind": "cluster", )"
            R"("transport": "auto", "leader": "first-rank"}]})");
  try {
    HierarchySpec::from_json(
        R"({"levels": [{"kind": "node", "leader": "last-rank"}, )"
        R"({"kind": "cluster"}]})");
    ADD_FAILURE() << "leader policy 'last-rank' was accepted";
  } catch (const HierarchyError& e) {
    EXPECT_STREQ(e.what(), "hierarchy: unknown leader policy 'last-rank' "
                           "(expected first-rank)");
  }
}

// ---- Resolution invariants ----

/// Every level must partition the world into ascending contiguous spans,
/// leaders must be group-first ranks, inner levels must refine outer ones,
/// and group_of must agree with the materialized groups.
void expect_resolved_invariants(const Hierarchy& h, int world_size) {
  const auto& lv = h.levels();
  ASSERT_EQ(static_cast<int>(lv.size()), h.depth());
  for (std::size_t l = 0; l < lv.size(); ++l) {
    const auto& gs = lv[l].groups;
    ASSERT_FALSE(gs.empty()) << "level " << l;
    int next = 0;
    for (std::size_t g = 0; g < gs.size(); ++g) {
      EXPECT_EQ(gs[g].first, next) << "level " << l << " group " << g;
      EXPECT_GT(gs[g].size, 0) << "level " << l << " group " << g;
      EXPECT_EQ(gs[g].leader, gs[g].first) << "level " << l << " group " << g;
      next = gs[g].first + gs[g].size;
    }
    EXPECT_EQ(next, world_size) << "level " << l << " does not cover world";
    for (int r = 0; r < world_size; ++r) {
      const int g = h.group_of(static_cast<int>(l), r);
      EXPECT_LE(gs[static_cast<std::size_t>(g)].first, r);
      EXPECT_LT(r, gs[static_cast<std::size_t>(g)].first +
                       gs[static_cast<std::size_t>(g)].size);
    }
  }
  // Refinement: every outer boundary is an inner boundary.
  for (std::size_t l = 0; l + 1 < lv.size(); ++l) {
    for (const auto& outer : lv[l + 1].groups) {
      bool found = false;
      for (const auto& inner : lv[l].groups) {
        if (inner.first == outer.first) found = true;
      }
      EXPECT_TRUE(found) << "outer level " << l + 1 << " boundary "
                         << outer.first << " not an inner boundary";
    }
  }
}

TEST(HierarchyResolve, InvariantsAcrossSpecsAndTopologies) {
  struct Combo {
    hw::ClusterSpec spec;
    HierarchySpec hs;
  };
  auto uneven = hw::ClusterSpecBuilder(hw::ClusterSpec::thor_numa(2, 8))
                    .ppn(7)
                    .build();
  std::vector<Combo> combos = {
      {hw::ClusterSpec::thor(4, 8), HierarchySpec::mha()},
      {hw::ClusterSpec::thor_numa(2, 8),
       HierarchySpec::derive(hw::ClusterSpec::thor_numa(2, 8), 3)},
      {uneven, HierarchySpec::derive(uneven, 3)},
  };
  // Adapter-group level on a 4-rail node.
  Combo ag;
  ag.spec = hw::ClusterSpec::multi_rail(2, 8, 4);
  ag.hs.levels = {level(LevelKind::kAdapterGroup), level(LevelKind::kNode),
                  level(LevelKind::kCluster)};
  combos.push_back(ag);
  // Custom depth-4: pairs < halves < node < cluster on ppn 8.
  Combo c4;
  c4.spec = hw::ClusterSpec::thor(2, 8);
  c4.hs.levels = {level(LevelKind::kCustom, LevelTransport::kAuto,
                        {0, 2, 4, 6}),
                  level(LevelKind::kCustom, LevelTransport::kAuto, {0, 4}),
                  level(LevelKind::kNode), level(LevelKind::kCluster)};
  combos.push_back(c4);

  for (std::size_t i = 0; i < combos.size(); ++i) {
    SCOPED_TRACE("combo " + std::to_string(i));
    sim::Engine eng;
    hw::Cluster cl(eng, combos[i].spec);
    const Hierarchy h(combos[i].hs, cl);
    expect_resolved_invariants(h, cl.world_size());
  }
}

TEST(HierarchyResolve, UnevenSocketsGetBlockSpans) {
  // L=7, S=2 -> sockets {4, 3}: the socket level's node-local groups match
  // the cluster's block distribution.
  auto spec = hw::ClusterSpecBuilder(hw::ClusterSpec::thor_numa(2, 8))
                  .ppn(7)
                  .build();
  sim::Engine eng;
  hw::Cluster cl(eng, spec);
  const Hierarchy h(HierarchySpec::derive(spec, 3), cl);
  const auto& sockets = h.levels().front().groups;
  ASSERT_EQ(sockets.size(), 4u);  // 2 nodes x 2 sockets
  EXPECT_EQ(sockets[0].size, 4);
  EXPECT_EQ(sockets[1].size, 3);
  EXPECT_EQ(sockets[2].first, 7);
  EXPECT_EQ(sockets[2].size, 4);
  EXPECT_EQ(sockets[3].size, 3);
  EXPECT_EQ(h.structure(), "cluster:1>node:2>socket:4");
}

TEST(HierarchyResolve, RejectsSpecTopologyMismatch) {
  sim::Engine eng;
  hw::Cluster cl(eng, hw::ClusterSpec::thor(2, 4));
  // Custom boundary beyond ppn.
  HierarchySpec s;
  s.levels = {level(LevelKind::kCustom, LevelTransport::kAuto, {0, 5}),
              level(LevelKind::kNode), level(LevelKind::kCluster)};
  EXPECT_THROW(Hierarchy(s, cl), HierarchyError);
  // Adapter groups need hcas <= ppn.
  sim::Engine eng2;
  hw::Cluster wide(eng2, hw::ClusterSpec::multi_rail(2, 2, 3));
  HierarchySpec a;
  a.levels = {level(LevelKind::kAdapterGroup), level(LevelKind::kNode),
              level(LevelKind::kCluster)};
  EXPECT_THROW(Hierarchy(a, wide), HierarchyError);
  // Non-nesting custom levels: {0,3} does not refine under {0,2}.
  HierarchySpec n;
  n.levels = {level(LevelKind::kCustom, LevelTransport::kAuto, {0, 2}),
              level(LevelKind::kCustom, LevelTransport::kAuto, {0, 3}),
              level(LevelKind::kNode), level(LevelKind::kCluster)};
  EXPECT_THROW(Hierarchy(n, cl), HierarchyError);
}

// ---- Exact virtual times of the paper's depths ----

TEST(HierarchyApi, Depth2IsMetricIdenticalToMhaInter) {
  const auto spec = hw::ClusterSpec::thor(4, 4);
  for (std::size_t msg : {std::size_t{4096}, std::size_t{262144}}) {
    const double t_spec =
        osu::measure_allgather(spec, fn_spec(HierarchySpec::mha()), msg);
    const double t_hist = osu::measure_allgather(
        spec,
        [](mpi::Comm& c, int r, hw::BufView s, hw::BufView rv, std::size_t m,
           bool ip) {
          return allgather_hierarchical(c, r, s, rv, m, ip, HierOptions{});
        },
        msg);
    EXPECT_EQ(t_spec, t_hist) << "msg=" << msg;  // exact: same event stream
  }
}

// The depth-3 socket hierarchy (the numa3 design) at exact virtual times.
// The table was captured from the dedicated two-level NUMA phase-1 engine
// this path replaced (MHA-intra per socket on socket communicators, then
// a socket-leader pull through shared memory); the staged NodePlan path
// must reproduce it bit for bit across even, uneven, 4-socket,
// singleton-socket and single-node shapes, four sizes, and the streaming,
// overlap-off and offload = 0 variants.

enum class Variant { kStreaming, kOverlapOff, kOffload0 };

struct Pin {
  const char* shape;
  std::size_t msg;
  Variant variant;
  double seconds;
};

hw::ClusterSpec pin_shape(const std::string& name) {
  const auto numa = [](int nodes, int ppn) {
    return hw::ClusterSpec::thor_numa(nodes, ppn);
  };
  if (name == "even_2x8") return numa(2, 8);
  if (name == "even_4x4") return numa(4, 4);
  if (name == "nonp2_3x6") return numa(3, 6);
  if (name == "uneven_2x7") {
    return hw::ClusterSpecBuilder(numa(2, 8)).ppn(7).build();
  }
  if (name == "sockets4_2x8") {
    return hw::ClusterSpecBuilder(numa(2, 8)).sockets(4).build();
  }
  if (name == "singleton_2x2") return numa(2, 2);
  if (name == "node1_1x8") return numa(1, 8);
  throw std::invalid_argument("unknown pin shape " + name);
}

TEST(HierarchyApi, Depth3MatchesPinnedNumaTimes) {
  using enum Variant;
  const std::vector<Pin> pins = {
      {"even_2x8", 100, kStreaming, 5.5367878787878791e-06},
      {"even_2x8", 100, kOverlapOff, 5.5367878787878791e-06},
      {"even_2x8", 100, kOffload0, 5.4378989898989905e-06},
      {"even_2x8", 4096, kStreaming, 2.5472393535353531e-05},
      {"even_2x8", 4096, kOverlapOff, 2.5472393535353531e-05},
      {"even_2x8", 4096, kOffload0, 2.6277993535353533e-05},
      {"even_2x8", 65536, kStreaming, 0.00027585899717171719},
      {"even_2x8", 65536, kOverlapOff, 0.00032212932929292929},
      {"even_2x8", 65536, kOffload0, 0.00029512111111111111},
      {"even_2x8", 1048576, kStreaming, 0.0044539803352469749},
      {"even_2x8", 1048576, kOverlapOff, 0.0051955904976712175},
      {"even_2x8", 1048576, kOffload0, 0.0046647211111111109},
      {"even_4x4", 100, kStreaming, 5.9570270707070718e-06},
      {"even_4x4", 100, kOverlapOff, 6.2603604040404053e-06},
      {"even_4x4", 100, kOffload0, 4.8793737373737382e-06},
      {"even_4x4", 4096, kStreaming, 2.1061637979797975e-05},
      {"even_4x4", 4096, kOverlapOff, 2.3496171313131307e-05},
      {"even_4x4", 4096, kOffload0, 2.0843344646464644e-05},
      {"even_4x4", 65536, kStreaming, 0.0001633210270707071},
      {"even_4x4", 65536, kOverlapOff, 0.00022895418828282828},
      {"even_4x4", 65536, kOffload0, 0.00016706009373737378},
      {"even_4x4", 1048576, kStreaming, 0.0024716807505028291},
      {"even_4x4", 1048576, kOverlapOff, 0.0035240618125252517},
      {"even_4x4", 1048576, kOffload0, 0.0025349610171694955},
      {"nonp2_3x6", 100, kStreaming, 6.765369696969695e-06},
      {"nonp2_3x6", 100, kOverlapOff, 7.1353696969696948e-06},
      {"nonp2_3x6", 100, kOffload0, 5.8189696969696967e-06},
      {"nonp2_3x6", 4096, kStreaming, 2.2830576639118457e-05},
      {"nonp2_3x6", 4096, kOverlapOff, 2.6772675151515146e-05},
      {"nonp2_3x6", 4096, kOffload0, 2.3277576639118458e-05},
      {"nonp2_3x6", 65536, kStreaming, 0.00024549363151515164},
      {"nonp2_3x6", 65536, kOverlapOff, 0.00031350000242424242},
      {"nonp2_3x6", 65536, kOffload0, 0.00025650843151515159},
      {"nonp2_3x6", 1048576, kStreaming, 0.0038416233913109031},
      {"nonp2_3x6", 1048576, kOverlapOff, 0.0049064168387878779},
      {"nonp2_3x6", 1048576, kOffload0, 0.0040164433913109027},
      {"uneven_2x7", 100, kStreaming, 5.3190060606060603e-06},
      {"uneven_2x7", 100, kOverlapOff, 5.3190060606060603e-06},
      {"uneven_2x7", 100, kOffload0, 5.3192727272727276e-06},
      {"uneven_2x7", 4096, kStreaming, 2.1313505454545451e-05},
      {"uneven_2x7", 4096, kOverlapOff, 2.1313505454545451e-05},
      {"uneven_2x7", 4096, kOffload0, 2.2119105454545452e-05},
      {"uneven_2x7", 65536, kStreaming, 0.00023610124363636364},
      {"uneven_2x7", 65536, kOverlapOff, 0.00024521496484848485},
      {"uneven_2x7", 65536, kOffload0, 0.00025882444363636365},
      {"uneven_2x7", 1048576, kStreaming, 0.0036844004398650459},
      {"uneven_2x7", 1048576, kOverlapOff, 0.003851163086060606},
      {"uneven_2x7", 1048576, kOffload0, 0.0040643161731983785},
      {"sockets4_2x8", 100, kStreaming, 6.9102577777777789e-06},
      {"sockets4_2x8", 100, kOverlapOff, 6.9102577777777789e-06},
      {"sockets4_2x8", 100, kOffload0, 4.2591111111111119e-06},
      {"sockets4_2x8", 4096, kStreaming, 2.9326871111111108e-05},
      {"sockets4_2x8", 4096, kOverlapOff, 2.9326871111111108e-05},
      {"sockets4_2x8", 4096, kOffload0, 2.855268444444444e-05},
      {"sockets4_2x8", 65536, kStreaming, 0.00030968391873015873},
      {"sockets4_2x8", 65536, kOverlapOff, 0.00038009513777777779},
      {"sockets4_2x8", 65536, kOffload0, 0.00031968173206349207},
      {"sockets4_2x8", 1048576, kStreaming, 0.0049581965533311151},
      {"sockets4_2x8", 1048576, kOverlapOff, 0.0060334958844444446},
      {"sockets4_2x8", 1048576, kOffload0, 0.0050994378866644494},
      {"singleton_2x2", 100, kStreaming, 2.2067474747474748e-06},
      {"singleton_2x2", 100, kOverlapOff, 2.2067474747474748e-06},
      {"singleton_2x2", 100, kOffload0, 2.2067474747474748e-06},
      {"singleton_2x2", 4096, kStreaming, 6.4723765656565662e-06},
      {"singleton_2x2", 4096, kOverlapOff, 6.4723765656565662e-06},
      {"singleton_2x2", 4096, kOffload0, 6.4723765656565662e-06},
      {"singleton_2x2", 65536, kStreaming, 4.4098810505050509e-05},
      {"singleton_2x2", 65536, kOverlapOff, 5.0606628686868681e-05},
      {"singleton_2x2", 65536, kOffload0, 4.4098810505050509e-05},
      {"singleton_2x2", 1048576, kStreaming, 0.00055849818242202285},
      {"singleton_2x2", 1048576, kOverlapOff, 0.000763956058989899},
      {"singleton_2x2", 1048576, kOffload0, 0.00055849818242202285},
      {"node1_1x8", 100, kStreaming, 3.9110133333333332e-06},
      {"node1_1x8", 100, kOverlapOff, 3.9110133333333332e-06},
      {"node1_1x8", 100, kOffload0, 3.4311111111111115e-06},
      {"node1_1x8", 4096, kStreaming, 1.186071111111111e-05},
      {"node1_1x8", 4096, kOverlapOff, 1.186071111111111e-05},
      {"node1_1x8", 4096, kOffload0, 1.2666311111111112e-05},
      {"node1_1x8", 65536, kStreaming, 0.00013539886383838386},
      {"node1_1x8", 65536, kOverlapOff, 0.00013539886383838386},
      {"node1_1x8", 65536, kOffload0, 0.00015466097777777781},
      {"node1_1x8", 1048576, kStreaming, 0.0022158348685803087},
      {"node1_1x8", 1048576, kOverlapOff, 0.0022158348685803087},
      {"node1_1x8", 1048576, kOffload0, 0.0024265756444444447},
  };
  for (const Pin& pin : pins) {
    HierarchyOptions o;
    o.overlap = pin.variant != kOverlapOff;
    if (pin.variant == kOffload0) o.offload = 0.0;
    const auto spec = pin_shape(pin.shape);
    const double t = osu::measure_allgather(
        spec, fn_spec(HierarchySpec::derive(spec, 3), o), pin.msg);
    EXPECT_EQ(t, pin.seconds)
        << pin.shape << " msg=" << pin.msg << " variant "
        << static_cast<int>(pin.variant);
  }
}

// ---- n-level correctness ----

TEST(HierarchyApi, CustomDepth4GathersCorrectly) {
  HierarchySpec hs;
  hs.levels = {level(LevelKind::kCustom, LevelTransport::kAuto, {0, 2, 4, 6}),
               level(LevelKind::kCustom, LevelTransport::kAuto, {0, 4}),
               level(LevelKind::kNode), level(LevelKind::kCluster)};
  check_hier(hw::ClusterSpec::thor(2, 8), hs, 4096);
  check_hier(hw::ClusterSpec::thor(3, 8), hs, 100);  // non-p2, odd bytes
  check_hier(hw::ClusterSpec::thor(2, 8), hs, 2048, /*in_place=*/true);
}

TEST(HierarchyApi, AdapterGroupDepth3GathersCorrectly) {
  HierarchySpec hs;
  hs.levels = {level(LevelKind::kAdapterGroup), level(LevelKind::kNode),
               level(LevelKind::kCluster)};
  check_hier(hw::ClusterSpec::multi_rail(2, 8, 4), hs, 4096);
  // hcas (3) does not divide ppn (8): groups {3, 3, 2}.
  check_hier(hw::ClusterSpec::multi_rail(2, 8, 3), hs, 1024);
}

TEST(HierarchyApi, UnevenSocketsGatherCorrectly) {
  auto spec = hw::ClusterSpecBuilder(hw::ClusterSpec::thor_numa(2, 8))
                  .ppn(7)
                  .build();
  check_hier(spec, HierarchySpec::derive(spec, 0), 4096);
  check_hier(spec, HierarchySpec::derive(spec, 0), 513, /*in_place=*/true);
}

TEST(HierarchyApi, UnevenCustomGroupsGatherCorrectly) {
  HierarchySpec hs;
  hs.levels = {level(LevelKind::kCustom, LevelTransport::kAuto, {0, 3}),
               level(LevelKind::kNode), level(LevelKind::kCluster)};
  check_hier(hw::ClusterSpec::thor(2, 5), hs, 2048);
}

// ---- Hierarchy-aware bcast ----

// Depth 2 is the paper's hierarchical bcast (registered as "mha"): a
// one-hop cascade, leader -> members.
TEST(HierarchyBcast, Depth2DelegatesToMhaBcast) {
  check_bcast(hw::ClusterSpec::thor(2, 4), HierarchySpec::mha(), 8192, 4096);
}

TEST(HierarchyBcast, Depth3CascadeDelivers) {
  const auto spec = hw::ClusterSpec::thor_numa(2, 8);
  check_bcast(spec, HierarchySpec::derive(spec, 3), 16384, 4096);
  // Pipeline chunk larger than the payload: single-chunk path.
  check_bcast(spec, HierarchySpec::derive(spec, 3), 1000, 1 << 20);
}

TEST(HierarchyBcast, CustomDepth4CascadeDelivers) {
  HierarchySpec hs;
  hs.levels = {level(LevelKind::kCustom, LevelTransport::kAuto, {0, 2, 4, 6}),
               level(LevelKind::kCustom, LevelTransport::kAuto, {0, 4}),
               level(LevelKind::kNode), level(LevelKind::kCluster)};
  check_bcast(hw::ClusterSpec::thor(2, 8), hs, 12000, 4096);
}

// ---- Selector depth routing and the env override ----

TEST(SelectorDepth, FlatNodesKeepPaperThresholds) {
  const auto spec = hw::ClusterSpec::thor(4, 4);
  sim::Engine eng;
  mpi::World world(eng, spec);
  const auto sel =
      default_selector().select_allgather(world.comm_world(), 0, 65536);
  EXPECT_EQ(sel.reason.rfind("allgather:threshold:fig8", 0), 0u) << sel.reason;
}

TEST(SelectorDepth, MultiSocketWorldsRouteToDepth3) {
  const auto spec = hw::ClusterSpec::thor_numa(2, 8);
  sim::Engine eng;
  mpi::World world(eng, spec);
  const auto sel =
      default_selector().select_allgather(world.comm_world(), 0, 65536);
  EXPECT_EQ(sel.name(), "numa3");
  EXPECT_EQ(sel.reason, "allgather:depth:cluster:1>node:2>socket:4");
}

TEST(SelectorDepth, CommShapeAgreesWithDerive) {
  coll::CommShape s;
  s.nodes = 4;
  s.sockets = 2;
  EXPECT_EQ(s.natural_depth(), 3);
  EXPECT_EQ(s.level_structure(), "cluster:1>node:4>socket:8");
  s.sockets = 1;
  EXPECT_EQ(s.natural_depth(), 2);
  EXPECT_EQ(s.level_structure(), "cluster:1>node:4");
  s.nodes = 1;
  s.sockets = 2;
  EXPECT_EQ(s.natural_depth(), 2);
}

TEST(SelectorDepth, EnvOverridePinsDepth) {
  const auto spec = hw::ClusterSpec::thor_numa(2, 8);
  {
    EnvGuard env(osu::Env::kHierarchy, "2");
    sim::Engine eng;
    mpi::World world(eng, spec);
    const auto sel =
        default_selector().select_allgather(world.comm_world(), 0, 65536);
    EXPECT_EQ(sel.name(), "mha_inter");
    EXPECT_EQ(sel.reason, std::string("allgather:env:") + osu::Env::kHierarchy);
  }
  {
    EnvGuard env(osu::Env::kHierarchy, "auto");
    sim::Engine eng;
    mpi::World world(eng, spec);
    const auto sel =
        default_selector().select_allgather(world.comm_world(), 0, 65536);
    EXPECT_EQ(sel.name(), "numa3");  // auto = policy decides
  }
}

TEST(HierarchyEnv, ParsesDepthsFilesAndRejectsJunk) {
  const auto numa = hw::ClusterSpec::thor_numa(2, 8);
  EXPECT_FALSE(hierarchy_from_env(numa).has_value());
  {
    EnvGuard env(osu::Env::kHierarchy, "3");
    const auto hs = hierarchy_from_env(numa);
    ASSERT_TRUE(hs.has_value());
    EXPECT_EQ(hs->depth(), 3);
  }
  {
    EnvGuard env(osu::Env::kHierarchy, "auto");
    EXPECT_FALSE(hierarchy_from_env(numa).has_value());
  }
  const std::string path = ::testing::TempDir() + "hmca_hier_spec.json";
  {
    std::ofstream out(path);
    out << HierarchySpec::mha().to_json();
  }
  {
    EnvGuard env(osu::Env::kHierarchy, ("@" + path).c_str());
    const auto hs = hierarchy_from_env(numa);
    ASSERT_TRUE(hs.has_value());
    EXPECT_EQ(hs->depth(), 2);
  }
  {
    EnvGuard env(osu::Env::kHierarchy, "@/nonexistent/spec.json");
    EXPECT_THROW(hierarchy_from_env(numa), HierarchyError);
  }
  {
    EnvGuard env(osu::Env::kHierarchy, "banana");
    EXPECT_THROW(hierarchy_from_env(numa), HierarchyError);
  }
}

// ---- Key allocation / grouping primitives ----

TEST(HierDetail, GroupOfFindsEnclosingSpan) {
  const std::vector<int> firsts = {0, 4, 7};
  EXPECT_EQ(detail::group_of(firsts, 0), 0);
  EXPECT_EQ(detail::group_of(firsts, 3), 0);
  EXPECT_EQ(detail::group_of(firsts, 4), 1);
  EXPECT_EQ(detail::group_of(firsts, 6), 1);
  EXPECT_EQ(detail::group_of(firsts, 7), 2);
  EXPECT_EQ(detail::group_of(firsts, 100), 2);
}

TEST(HierDetail, RingChunkTagsFit) {
  // The longest chunked ring: its last step's last chunk tag is the
  // largest (step, chunk) tag the user tag space holds.
  EXPECT_TRUE(detail::ring_chunk_tags_fit(2049));
  EXPECT_LE(2047 * coll::kChunkTagStride + coll::kMaxChunks - 1,
            mpi::kMaxUserTag);
  // One node more and the leader Ring falls back to tag = step, which
  // fits far beyond that (Scale.RingBeyondChunkTagSpaceFallsBackToWholeBlocks
  // runs the 2050-node fallback end to end).
  EXPECT_FALSE(detail::ring_chunk_tags_fit(2050));
  EXPECT_TRUE(detail::ring_chunk_tags_fit(2));
}

TEST(HierDetail, OpKeysSeparateSaltAndContext) {
  EXPECT_NE(shm::op_key(1, 5, 1), shm::op_key(1, 5, 2));
  EXPECT_NE(shm::op_key(1, 5, 1), shm::op_key(2, 5, 1));
  EXPECT_NE(shm::op_key(1, 5, 1), shm::op_key(1, 6, 1));
  // The (seq << 20) | (ctx << 4) | salt layout every shared object's key
  // is derived from.
  EXPECT_EQ(shm::op_key(3, 5, 2), (5u << 20) | (3u << 4) | 2u);
  EXPECT_EQ(shm::op_key(3, 5), (5u << 20) | (3u << 4));
}

// ---- The point of depth 3: multi-socket wins, telemetry-confirmed ----

TEST(HierarchyPerf, Depth3BeatsDepth2OnConstrainedUpi) {
  auto spec = hw::ClusterSpec::thor_numa(1, 32);
  spec.upi_bw = 8e9;  // older QPI parts: the link binds
  spec.carry_data = false;
  const std::size_t msg = 1u << 20;

  trace::Tracer tr2, tr3;
  const double t2 = osu::measure_allgather(
      spec, fn_spec(HierarchySpec::derive(spec, 2)), msg, &tr2);
  const double t3 = osu::measure_allgather(
      spec, fn_spec(HierarchySpec::derive(spec, 3)), msg, &tr3);
  EXPECT_LT(t3, 0.95 * t2);

  // Telemetry cross-check: the critical-path analysis over the captured
  // spans must agree with the measured makespans — the win is visible in
  // the span structure, not only the clock.
  const auto cp2 = obs::analyze_critical_path(tr2.spans());
  const auto cp3 = obs::analyze_critical_path(tr3.spans());
  ASSERT_FALSE(cp2.empty());
  ASSERT_FALSE(cp3.empty());
  const double end2 = cp2.steps.back().t1;
  const double end3 = cp3.steps.back().t1;
  EXPECT_LE(end2, t2 * (1 + 1e-9));
  EXPECT_GE(end2, 0.9 * t2);
  EXPECT_LE(end3, t3 * (1 + 1e-9));
  EXPECT_GE(end3, 0.9 * t3);
  EXPECT_LT(end3, 0.95 * end2);
}

}  // namespace
}  // namespace hmca::core
