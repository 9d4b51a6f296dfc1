#include "core/mha_allgatherv.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "coll/graph.hpp"
#include "core/hier_detail.hpp"
#include "core/mha_intra.hpp"
#include "model/cost.hpp"
#include "shm/shm.hpp"
#include "sim/sync.hpp"

namespace hmca::core {

namespace {

using shm::op_key;

void check_args(const mpi::Comm& comm, int my, const hw::BufView& send,
                const hw::BufView& recv, const coll::VarLayout& layout,
                bool in_place) {
  if (my < 0 || my >= comm.size()) {
    throw std::invalid_argument("mha_allgatherv: bad rank");
  }
  if (layout.counts.size() != static_cast<std::size_t>(comm.size())) {
    throw std::invalid_argument("mha_allgatherv: layout size != comm size");
  }
  if (recv.len != layout.total) {
    throw std::invalid_argument("mha_allgatherv: recv size != layout total");
  }
  if (!in_place && send.len != layout.count(my)) {
    throw std::invalid_argument("mha_allgatherv: send size != my count");
  }
}

// Local seed copy for the l == 1 phase-1 task.
sim::Task<void> seed_copy(hw::Cluster& cl, int grank, hw::BufView dst,
                          hw::BufView src) {
  co_await cl.cpu_copy_by(grank, static_cast<double>(src.len));
  hw::copy_payload(dst, src);
}

// Intra-node MHA Allgatherv over a node-local communicator: CMA direct
// spread with the far end of the schedule offloaded to the HCAs until the
// Eq. 1 byte budget is spent. The CPU/HCA split depends on the variable
// block sizes encountered along the walk, so the body stays one coroutine
// and runs as allgatherv_mha's phase-1 macro task.
sim::Task<void> intra_body(mpi::Comm& node_comm, int my, hw::BufView send,
                           hw::BufView recv, coll::VarLayout layout,
                           bool in_place) {
  const int l = node_comm.size();
  auto& cl = node_comm.cluster();
  auto& eng = node_comm.engine();
  const int node = node_comm.node_of(my);
  const int grank = node_comm.to_global(my);

  if (!in_place && layout.count(my) > 0) {
    co_await cl.cpu_copy_by(grank, static_cast<double>(layout.count(my)));
    hw::copy_payload(recv.sub(layout.offset(my), layout.count(my)), send);
  }
  if (l == 1) co_return;

  // Address exchange, as in the equal-block MHA-intra.
  const hw::BufView contribution =
      in_place ? recv.sub(layout.offset(my), layout.count(my)) : send;
  const std::uint64_t seq = node_comm.next_op_seq(my);
  auto board = node_comm.share().acquire<AddressBoard>(
      node, op_key(node_comm.ctx(), seq, 11), l,
      [&] { return std::make_shared<AddressBoard>(eng, l); });
  co_await board->put_and_wait(my, contribution);

  // Eq. 1 byte budget: with average message size M the tuned split
  // offloads d of (L-1) transfers; the variable-block analogue hands the
  // HCAs the same share of *bytes*, taken from the far end of the
  // direct-spread schedule.
  const double avg =
      static_cast<double>(layout.total) / static_cast<double>(l);
  const double d = model::optimal_offload(
      model::ModelParams::from_spec(cl.spec()), l, std::max(avg, 1.0));
  double hca_budget = d / std::max(1, l - 1) *
                      static_cast<double>(layout.total - layout.count(my));

  sim::WaitGroup hca_reads(eng);
  int first_cpu_distance = l - 1;  // distances > this go to the adapters
  for (int i = l - 1; i >= 1 && hca_budget > 0.0; --i) {
    const int src = (my - i + l) % l;
    const std::size_t bytes = layout.count(src);
    if (bytes == 0) {
      first_cpu_distance = i - 1;
      continue;
    }
    if (static_cast<double>(bytes) > hca_budget) break;
    hca_budget -= static_cast<double>(bytes);
    first_cpu_distance = i - 1;
    hca_reads.spawn(node_comm.net().rdma_get(
        grank, node_comm.to_global(src), board->view(src),
        recv.sub(layout.offset(src), bytes), net::Net::kStripe));
  }
  for (int i = 1; i <= first_cpu_distance; ++i) {
    const int src = (my - i + l) % l;
    if (layout.count(src) == 0) continue;
    co_await node_comm.net().cma_get(
        grank, board->view(src),
        recv.sub(layout.offset(src), layout.count(src)),
        node_comm.to_global(src));
  }
  co_await hca_reads.wait();
}

}  // namespace

sim::Task<void> allgatherv_mha(mpi::Comm& comm, int my, hw::BufView send,
                               hw::BufView recv,
                               const coll::VarLayout& layout, bool in_place) {
  check_args(comm, my, send, recv, layout, in_place);
  auto& cl = comm.cluster();
  if (comm.size() != cl.world_size()) {
    throw std::invalid_argument("allgatherv_mha: world comm required");
  }
  const int l = cl.ppn();
  const int n = cl.nodes();
  const int node = comm.node_of(my);
  const int local = comm.node_local_rank(my);
  const std::uint64_t seq = comm.next_op_seq(my);
  auto& eng = comm.engine();
  const int grank = comm.to_global(my);

  // Node block geometry: node k's slice covers its ranks' blocks, which
  // are contiguous because ranks are node-major.
  std::vector<std::size_t> block_off(static_cast<std::size_t>(n) + 1);
  for (int k = 0; k < n; ++k) {
    block_off[static_cast<std::size_t>(k)] = layout.offset(k * l);
  }
  block_off[static_cast<std::size_t>(n)] = layout.total;
  const std::size_t node_off = block_off[static_cast<std::size_t>(node)];
  const std::size_t node_bytes =
      block_off[static_cast<std::size_t>(node) + 1] - node_off;

  coll::GraphExecutor exec(eng, comm.sink(), grank);
  coll::TaskGraph g;
  coll::RangeProducers prod;

  // ---- Phase 1: node-level aggregation (one macro task: the byte-budget
  // walk's order is data-driven) ----
  if (l > 1) {
    std::vector<std::size_t> local_counts;
    local_counts.reserve(static_cast<std::size_t>(l));
    for (int r = 0; r < l; ++r) {
      local_counts.push_back(layout.count(node * l + r));
    }
    auto local_layout = coll::VarLayout::from_counts(std::move(local_counts));
    const hw::BufView node_slice = recv.sub(node_off, node_bytes);
    const int t_p1 = g.add(
        coll::TaskKind::kWrapped, coll::Lane::kNone,
        [&comm, my, send, node_slice, node, local,
         local_layout = std::move(local_layout), in_place] {
          return intra_body(comm.world().node_comm(node), local, send,
                            node_slice, local_layout, in_place);
        },
        coll::TaskOpts{"intra-v", "phase1", -1, node_bytes, -1});
    prod.add(node_off, node_bytes, t_p1);
  } else if (!in_place && layout.count(my) > 0) {
    const hw::BufView dst = recv.sub(layout.offset(my), layout.count(my));
    const int t_p1 = g.add(
        coll::TaskKind::kCopy, coll::Lane::kCpu,
        [&cl, grank, dst, send] { return seed_copy(cl, grank, dst, send); },
        coll::TaskOpts{"seed", "phase1", -1, layout.count(my), -1});
    prod.add(node_off, node_bytes, t_p1);
  }

  if (n == 1) {
    if (!g.empty()) co_await exec.run(g);
    co_return;
  }

  std::shared_ptr<shm::ShmRegion> region;
  if (l > 1) {
    region = comm.share().acquire<shm::ShmRegion>(
        node, op_key(comm.ctx(), seq, 12), l, [&] {
          return std::make_shared<shm::ShmRegion>(cl, node, recv.len,
                                                  comm.sink(),
                                                  cl.global_rank(node, 0));
        });
  }
  detail::build_leader_ring(g, exec, comm, my, recv, block_off, prod,
                            /*fence=*/false, region);
  co_await exec.run(g);
}

}  // namespace hmca::core
