// MHA rooted collectives (Sec. 7 extension): hierarchical broadcast and
// reduce — correctness across topologies/roots, and the structural claims
// (striped inter-node movement, pipelined shm distribution).
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "coll/bcast.hpp"
#include "core/hierarchy.hpp"
#include "core/mha_rooted.hpp"
#include "mpi/comm.hpp"
#include "sim/engine.hpp"
#include "testing/coll_testing.hpp"

namespace hmca::core {
namespace {

using hmca::testing::block_byte;

// The paper's hierarchical bcast: the depth-2 (node < cluster) hierarchy.
sim::Task<void> mha_bcast(mpi::Comm& comm, int r, int root, hw::BufView d) {
  co_await bcast_hierarchy(comm, r, root, d, HierarchySpec::mha());
}

void check_mha_bcast(int nodes, int ppn, std::size_t bytes, int root) {
  auto spec = hw::ClusterSpec::thor(nodes, ppn);
  spec.carry_data = true;
  sim::Engine eng;
  mpi::World world(eng, spec);
  auto& comm = world.comm_world();
  const int p = comm.size();
  std::vector<hw::Buffer> bufs;
  for (int r = 0; r < p; ++r) {
    auto b = hw::Buffer::data(bytes);
    if (r == root) {
      for (std::size_t i = 0; i < bytes; ++i) b.bytes()[i] = block_byte(root, i);
    }
    bufs.push_back(std::move(b));
  }
  for (int r = 0; r < p; ++r) {
    eng.spawn(mha_bcast(comm, r, root, bufs[static_cast<std::size_t>(r)].view()));
  }
  eng.run();
  for (int r = 0; r < p; ++r) {
    for (std::size_t i = 0; i < bytes; ++i) {
      ASSERT_EQ(bufs[static_cast<std::size_t>(r)].bytes()[i],
                block_byte(root, i))
          << "rank " << r << " byte " << i;
    }
  }
}

using BTopo = std::tuple<int, int, std::size_t, int>;
class MhaBcastSweep : public ::testing::TestWithParam<BTopo> {};

TEST_P(MhaBcastSweep, BroadcastsCorrectly) {
  auto [nodes, ppn, bytes, root] = GetParam();
  check_mha_bcast(nodes, ppn, bytes, root);
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, MhaBcastSweep,
    ::testing::Values(BTopo{1, 4, 4096, 0},
                      BTopo{2, 2, 65536, 0},
                      BTopo{2, 2, 65536, 3},   // non-leader root
                      BTopo{3, 2, 12288, 4},   // non-p2 nodes, leader root
                      BTopo{4, 4, 1u << 20, 5},
                      BTopo{2, 1, 777, 1},     // ppn 1: leaders only
                      BTopo{1, 6, 100, 5}));   // intra-node, odd size

sim::Task<void> reduce_rank(mpi::Comm& comm, int r, int root, hw::BufView d,
                            std::size_t count, mpi::ReduceOp op) {
  co_await mha_reduce(comm, r, root, d, count, mpi::Dtype::kInt64, op);
}

void check_mha_reduce(int nodes, int ppn, std::size_t count, int root) {
  auto spec = hw::ClusterSpec::thor(nodes, ppn);
  spec.carry_data = true;
  sim::Engine eng;
  mpi::World world(eng, spec);
  auto& comm = world.comm_world();
  const int p = comm.size();
  auto init = [](int r, std::size_t e) {
    return static_cast<std::int64_t>((r + 1) * ((e % 3) + 1) - 2);
  };
  std::vector<hw::Buffer> bufs;
  for (int r = 0; r < p; ++r) {
    auto b = hw::Buffer::data(count * 8);
    for (std::size_t e = 0; e < count; ++e) b.as<std::int64_t>()[e] = init(r, e);
    bufs.push_back(std::move(b));
  }
  for (int r = 0; r < p; ++r) {
    eng.spawn(reduce_rank(comm, r, root,
                          bufs[static_cast<std::size_t>(r)].view(), count,
                          mpi::ReduceOp::kSum));
  }
  eng.run();
  for (std::size_t e = 0; e < count; ++e) {
    std::int64_t want = 0;
    for (int r = 0; r < p; ++r) want += init(r, e);
    ASSERT_EQ(bufs[static_cast<std::size_t>(root)].as<std::int64_t>()[e], want)
        << "elem " << e;
  }
}

using RTopo = std::tuple<int, int, std::size_t, int>;
class MhaReduceSweep : public ::testing::TestWithParam<RTopo> {};

TEST_P(MhaReduceSweep, ReducesCorrectly) {
  auto [nodes, ppn, count, root] = GetParam();
  check_mha_reduce(nodes, ppn, count, root);
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, MhaReduceSweep,
    ::testing::Values(RTopo{1, 4, 32, 0}, RTopo{2, 2, 64, 0},
                      RTopo{2, 2, 64, 3},    // non-leader root
                      RTopo{3, 2, 100, 4},
                      RTopo{4, 1, 16, 2},    // ppn 1
                      RTopo{2, 4, 4096, 6}));

TEST(MhaBcast, RejectsBadArguments) {
  auto spec = hw::ClusterSpec::thor(2, 2);
  sim::Engine eng;
  mpi::World world(eng, spec);
  auto& comm = world.comm_world();
  auto b = hw::Buffer::data(64);
  auto t = [&]() -> sim::Task<void> {
    co_await mha_bcast(comm, 0, 99, b.view());
  };
  eng.spawn(t());
  EXPECT_THROW(eng.run(), std::invalid_argument);
}

TEST(MhaBcastPerf, BeatsFlatBinomialAcrossNodes) {
  // The hierarchy stripes the inter-node hops over all rails and pipelines
  // the shm distribution; a flat binomial pushes every byte through
  // single-rail pt2pt paths and repeats inter-node hops per rank.
  auto measure = [](bool hier) {
    auto spec = hw::ClusterSpec::thor(8, 8);
    spec.carry_data = false;
    sim::Engine eng;
    mpi::World world(eng, spec);
    auto& comm = world.comm_world();
    const int p = comm.size();
    std::vector<hw::Buffer> bufs;
    for (int r = 0; r < p; ++r) bufs.push_back(hw::Buffer::phantom(4u << 20));
    auto rank = [&, hier](int r) -> sim::Task<void> {
      if (hier) {
        co_await mha_bcast(comm, r, 0, bufs[static_cast<std::size_t>(r)].view());
      } else {
        co_await coll::bcast_binomial(comm, r, 0,
                                      bufs[static_cast<std::size_t>(r)].view());
      }
    };
    for (int r = 0; r < p; ++r) eng.spawn(rank(r));
    eng.run();
    return eng.now();
  };
  EXPECT_LT(measure(true), measure(false));
}

TEST(MhaReducePerf, CompetitiveWithFlatBinomial) {
  auto measure = [](bool hier) {
    auto spec = hw::ClusterSpec::thor(8, 8);
    spec.carry_data = false;
    sim::Engine eng;
    mpi::World world(eng, spec);
    auto& comm = world.comm_world();
    const int p = comm.size();
    const std::size_t count = 1u << 20;
    std::vector<hw::Buffer> bufs;
    for (int r = 0; r < p; ++r) bufs.push_back(hw::Buffer::phantom(count * 8));
    auto rank = [&, hier](int r) -> sim::Task<void> {
      if (hier) {
        co_await mha_reduce(comm, r, 0, bufs[static_cast<std::size_t>(r)].view(),
                            count, mpi::Dtype::kDouble, mpi::ReduceOp::kSum);
      } else {
        co_await coll::reduce_binomial(comm, r, 0,
                                       bufs[static_cast<std::size_t>(r)].view(),
                                       count, mpi::Dtype::kDouble,
                                       mpi::ReduceOp::kSum);
      }
    };
    for (int r = 0; r < p; ++r) eng.spawn(rank(r));
    eng.run();
    return eng.now();
  };
  // Reduce has no structural win in this substrate (both schedules run
  // log2(P) rounds with striped rendezvous); the hierarchy must simply not
  // cost anything.
  EXPECT_LT(measure(true), 1.25 * measure(false));
}

}  // namespace
}  // namespace hmca::core
