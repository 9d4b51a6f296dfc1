// Internal helpers shared by the hierarchical collective engines
// (core/hierarchical.cpp, core/hierarchy.cpp and core/mha_allgatherv.cpp).
// Not part of the public API — everything here is an implementation
// convention of how node-share keys, stage partitions and the leader
// exchange are handled.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "coll/graph.hpp"
#include "hw/buffer.hpp"
#include "mpi/comm.hpp"
#include "shm/shm.hpp"

namespace hmca::core::detail {

/// A block of distinct node-share keys for one collective invocation. The
/// salt field of shm::op_key holds 4 bits, so each consumed sequence number
/// yields 15 usable keys (salt 0 is reserved for single-key callers);
/// every rank constructs the allocator at the same point of the SPMD
/// program, so the consumed sequence numbers — and therefore key(i) —
/// agree across the communicator.
class KeyAlloc {
 public:
  KeyAlloc(mpi::Comm& comm, int my, int count) : ctx_(comm.ctx()) {
    const int seqs = (count + 14) / 15;
    seqs_.reserve(static_cast<std::size_t>(seqs));
    for (int i = 0; i < seqs; ++i) seqs_.push_back(comm.next_op_seq(my));
  }
  std::uint64_t key(int i) const {
    return shm::op_key(ctx_, seqs_.at(static_cast<std::size_t>(i) / 15),
                       1 + i % 15);
  }

 private:
  int ctx_;
  std::vector<std::uint64_t> seqs_;
};

/// Group index of a node-local rank under a stage partition (`firsts`
/// ascending, starting at 0; the final boundary is implicit).
inline int group_of(const std::vector<int>& firsts, int local) {
  return static_cast<int>(std::upper_bound(firsts.begin(), firsts.end(),
                                           local) -
                          firsts.begin()) -
         1;
}

/// Whether a leader Ring over `nodes` blocks can tag its chunk messages
/// step * kChunkTagStride + chunk inside the user tag space. Longer rings
/// move whole blocks tagged by step.
inline bool ring_chunk_tags_fit(int nodes) {
  return static_cast<long long>(nodes - 2) * coll::kChunkTagStride +
             coll::kMaxChunks - 1 <=
         mpi::kMaxUserTag;
}

/// Phases 2 and 3 of a hierarchical gather over a leader Ring, for every
/// rank of the world `comm`. Node k's block of `recv` is the byte range
/// [block_off[k], block_off[k + 1]) (blocks may be uneven or empty). The
/// leader emits per-chunk send, recv and publish tasks: its first sends
/// wait on the phase-1 producers of their bytes in `prod`, later sends
/// forward the chunk received one step earlier, and every landed chunk is
/// published into `region` (nullptr on one-rank nodes). Members emit one
/// drain stream node with an instance per publication slot. `fence` is
/// barrier mode: one chunk per block and a phase-3 fence. Rings too long
/// for the (step, chunk) tag encoding also move whole blocks, tagged by
/// step.
void build_leader_ring(coll::TaskGraph& g, coll::GraphExecutor& exec,
                       mpi::Comm& comm, int my, hw::BufView recv,
                       const std::vector<std::size_t>& block_off,
                       const coll::RangeProducers& prod, bool fence,
                       const std::shared_ptr<shm::ShmRegion>& region);

}  // namespace hmca::core::detail
