// Exact virtual times of the flat comparator bodies and the multi-leader
// design: Bruck, Kandalla's multi-leader allgather, pairwise alltoall(v)
// and the allgatherv Ring. These run as plain coroutines (no task graph),
// and only two of them appear in a benchmark campaign, so this table is
// their bit-exact regression check: any change to their event stream
// shows up here as a differing completion time. The table was captured
// while each body still ran wrapped as a one-task graph, so it also proves
// that unwrapping them moved no event. Shapes cover non-power-of-two
// worlds, several ranks per node and skewed count layouts with zero-byte
// blocks, each at one small and one large size.
#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "coll/allgather.hpp"
#include "coll/allgatherv.hpp"
#include "coll/alltoall.hpp"
#include "hw/buffer.hpp"
#include "hw/spec.hpp"
#include "mpi/comm.hpp"
#include "osu/harness.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace hmca::coll {
namespace {

struct Pin {
  const char* algo;
  int nodes;
  int ppn;
  std::size_t size;  ///< per-rank block (allgather), pair block (alltoall)
                     ///< or the largest block of a skewed layout
  double seconds;
};

hw::ClusterSpec spec_of(const Pin& p) {
  auto spec = hw::ClusterSpec::thor(p.nodes, p.ppn);
  spec.carry_data = false;
  return spec;
}

/// Skew weight in 0..4 quarters of `size`; zero for a fifth of the blocks.
std::size_t skewed(std::size_t size, int w) {
  return size * static_cast<std::size_t>(w % 5) / 4;
}

/// Alltoallv count matrix: count(i, j) = skewed(size, i + 2j), so every
/// row and column mixes zero, partial and full blocks.
std::vector<std::size_t> a2av_counts(int p, std::size_t size) {
  std::vector<std::size_t> counts;
  for (int i = 0; i < p; ++i) {
    for (int j = 0; j < p; ++j) counts.push_back(skewed(size, i + 2 * j));
  }
  return counts;
}

/// Allgatherv counts: rank r contributes skewed(size, 3r + 1).
std::vector<std::size_t> agv_counts(int p, std::size_t size) {
  std::vector<std::size_t> counts;
  for (int r = 0; r < p; ++r) counts.push_back(skewed(size, 3 * r + 1));
  return counts;
}

sim::Task<void> a2av_rank(mpi::Comm& comm, int r, hw::BufView send,
                          hw::BufView recv, const AlltoallvLayout& layout) {
  co_await alltoallv_pairwise(comm, r, send, recv, layout);
}

sim::Task<void> agv_rank(mpi::Comm& comm, int r, hw::BufView send,
                         hw::BufView recv, const VarLayout& layout) {
  co_await allgatherv_ring(comm, r, send, recv, layout, false);
}

double measure_alltoallv(const Pin& pin) {
  sim::Engine eng;
  mpi::World world(eng, spec_of(pin));
  auto& comm = world.comm_world();
  const int p = comm.size();
  const auto layout =
      AlltoallvLayout::from_counts(p, a2av_counts(p, pin.size));
  std::vector<hw::Buffer> sends, recvs;
  for (int r = 0; r < p; ++r) {
    sends.push_back(hw::Buffer::phantom(layout.send_total(r)));
    recvs.push_back(hw::Buffer::phantom(layout.recv_total(r)));
  }
  for (int r = 0; r < p; ++r) {
    eng.spawn(a2av_rank(comm, r, sends[static_cast<std::size_t>(r)].view(),
                        recvs[static_cast<std::size_t>(r)].view(), layout));
  }
  eng.run();
  return eng.now();
}

double measure_allgatherv(const Pin& pin) {
  sim::Engine eng;
  mpi::World world(eng, spec_of(pin));
  auto& comm = world.comm_world();
  const int p = comm.size();
  const auto layout = VarLayout::from_counts(agv_counts(p, pin.size));
  std::vector<hw::Buffer> sends, recvs;
  for (int r = 0; r < p; ++r) {
    sends.push_back(hw::Buffer::phantom(layout.count(r)));
    recvs.push_back(hw::Buffer::phantom(layout.total));
  }
  for (int r = 0; r < p; ++r) {
    eng.spawn(agv_rank(comm, r, sends[static_cast<std::size_t>(r)].view(),
                       recvs[static_cast<std::size_t>(r)].view(), layout));
  }
  eng.run();
  return eng.now();
}

AllgatherFn multi_leader(int groups) {
  return [groups](mpi::Comm& c, int my, hw::BufView s, hw::BufView rv,
                  std::size_t m, bool ip) {
    return allgather_multi_leader(c, my, s, rv, m, ip, groups);
  };
}

double measure(const Pin& pin) {
  const std::string algo = pin.algo;
  if (algo == "bruck") {
    return osu::measure_allgather(spec_of(pin), allgather_bruck, pin.size);
  }
  if (algo == "multi_leader1") {
    return osu::measure_allgather(spec_of(pin), multi_leader(1), pin.size);
  }
  if (algo == "multi_leader2") {
    return osu::measure_allgather(spec_of(pin), multi_leader(2), pin.size);
  }
  if (algo == "alltoall_pairwise") {
    return osu::measure_alltoall(spec_of(pin), alltoall_pairwise, pin.size);
  }
  if (algo == "alltoallv_pairwise") return measure_alltoallv(pin);
  if (algo == "allgatherv_ring") return measure_allgatherv(pin);
  throw std::invalid_argument("unknown pinned algorithm " + algo);
}

TEST(ExactTimes, FlatAndMultiLeaderBodiesMatchPinnedTimes) {
  const std::vector<Pin> pins = {
      {"bruck", 3, 1, 4096, 6.2449018181818187e-06},
      {"bruck", 3, 1, 65536, 3.8917032727272722e-05},
      {"bruck", 5, 1, 4096, 1.0395076363636365e-05},
      {"bruck", 5, 1, 65536, 6.3618429090909098e-05},
      {"bruck", 3, 2, 4096, 1.1795163636363636e-05},
      {"bruck", 3, 2, 65536, 9.4990647272727289e-05},
      {"multi_leader1", 3, 4, 4096, 2.2298001212121209e-05},
      {"multi_leader1", 3, 4, 65536, 0.0002223999793939394},
      {"multi_leader2", 2, 4, 4096, 1.4400288484848482e-05},
      {"multi_leader2", 2, 4, 65536, 0.00012560410666666668},
      {"alltoall_pairwise", 3, 2, 4096, 1.163861818181818e-05},
      {"alltoall_pairwise", 3, 2, 65536, 5.841579636363638e-05},
      {"alltoallv_pairwise", 3, 2, 4096, 9.3182763636363633e-06},
      {"alltoallv_pairwise", 3, 2, 65536, 4.3159856161616156e-05},
      {"allgatherv_ring", 3, 2, 4096, 9.01194909090909e-06},
      {"allgatherv_ring", 3, 2, 65536, 3.6675294545454552e-05},
  };
  for (const Pin& pin : pins) {
    EXPECT_EQ(measure(pin), pin.seconds)
        << pin.algo << ' ' << pin.nodes << 'x' << pin.ppn
        << " size=" << pin.size;
  }
}

}  // namespace
}  // namespace hmca::coll
