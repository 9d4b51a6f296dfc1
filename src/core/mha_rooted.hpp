// Multi-HCA aware rooted reduction (paper Sec. 7: "we plan to address
// other collectives"). The same two-level decomposition as MHA-inter:
// node aggregation through shared memory, inter-node movement between
// node leaders. The hierarchical bcast is bcast_hierarchy
// (core/hierarchy.hpp), at any depth.
#pragma once

#include <cstddef>

#include "hw/buffer.hpp"
#include "mpi/comm.hpp"
#include "mpi/datatype.hpp"
#include "sim/task.hpp"

namespace hmca::core {

/// Hierarchical reduction to `root`: node members push contributions
/// through shared memory, the leader folds them locally, leaders combine
/// across nodes with a binomial tree, and the result lands on `root`.
/// `data` is each rank's contribution; on `root` it ends holding the
/// full reduction.
sim::Task<void> mha_reduce(mpi::Comm& comm, int my, int root, hw::BufView data,
                           std::size_t count, mpi::Dtype dtype,
                           mpi::ReduceOp op);

}  // namespace hmca::core
