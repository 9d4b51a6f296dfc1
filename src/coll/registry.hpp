// Collective-algorithm registry: the bottom layer of the selection stack
// (registry -> selection engine -> profiles), modeled on Open MPI's `coll`
// framework and MVAPICH's tuning infrastructure.
//
// Every Allgather / Allgatherv / Allreduce / Bcast / Alltoall(v) /
// Reduce_scatter implementation registers here by name together with
//   - an *applicability predicate* over the communicator shape (power-of-two
//     size, node-major world layout, divisible ppn, multi-node, ...) so a
//     selector never dispatches into an algorithm that would throw, and
//   - an optional *cost-estimate hook* bound to the analytic models in
//     model/cost.hpp, letting cost-model-driven selection rank candidates.
//
// The flat algorithms of this library register during `Registry::instance()`
// bootstrap; the paper's MHA designs register via
// `core::register_core_algorithms()` (called by the selection engine and the
// profiles). Registration order is preserved for listings (`--algo list`).
#pragma once

#include <cstddef>
#include <functional>
#include <deque>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "coll/allgather.hpp"
#include "coll/allgatherv.hpp"
#include "coll/allreduce.hpp"
#include "coll/alltoall.hpp"
#include "coll/reduce_scatter.hpp"
#include "hw/buffer.hpp"
#include "model/params.hpp"
#include "mpi/comm.hpp"
#include "mpi/datatype.hpp"
#include "sim/task.hpp"

namespace hmca::coll {

/// Pluggable broadcast signature (`data` is input at root, output elsewhere).
using BcastFn = std::function<sim::Task<void>(mpi::Comm&, int my, int root,
                                              hw::BufView data)>;

/// Pluggable allgatherv signature (see coll/allgatherv.hpp for buffer
/// conventions).
using AllgathervFn = std::function<sim::Task<void>(
    mpi::Comm&, int my, hw::BufView send, hw::BufView recv, const VarLayout&,
    bool in_place)>;

/// The communicator shape an applicability predicate / cost hook sees.
struct CommShape {
  int comm_size = 1;  ///< ranks in the communicator
  int nodes = 1;      ///< distinct nodes spanned by the communicator
  int ppn = 1;        ///< cluster processes per node
  int hcas = 1;       ///< adapters *installed* per node
  int sockets = 1;    ///< NUMA sockets per node
  bool world = false; ///< comm is the (node-major) world communicator
  /// Smallest count of currently-alive rails over the nodes the
  /// communicator spans (== hcas on a healthy cluster, 0 when some node
  /// lost every adapter). Selection consults this so degraded shapes route
  /// to algorithms that still fit the surviving topology.
  int healthy_hcas = 1;

  /// True when some spanned node has lost or degraded rail capacity.
  bool degraded() const noexcept { return healthy_hcas < hcas; }

  /// Leader-hierarchy depth the topology naturally supports: 3 when the
  /// shape spans multiple nodes with multi-socket NUMA (socket < node <
  /// cluster), else 2 (node < cluster). The selector's depth routing and
  /// core::HierarchySpec::derive(spec, 0) agree on this.
  int natural_depth() const noexcept {
    return nodes > 1 && sockets > 1 ? 3 : 2;
  }

  /// Level-structure summary of the shape, outermost first — e.g.
  /// "cluster:1>node:4>socket:8" for 4 nodes of 2 sockets. Matches
  /// core::Hierarchy::structure() for the derived hierarchy; used in
  /// selector decision reasons.
  std::string level_structure() const;

  static CommShape of(const mpi::Comm& comm);
};

/// True when the algorithm can run on this shape for this per-process
/// message size (bytes). A null predicate means "always applicable".
using Applicability = std::function<bool(const CommShape&, std::size_t msg)>;

/// Estimated completion time in seconds (analytic, for ranking candidates —
/// not a promise of absolute accuracy). A null hook means "no estimate".
using CostFn = std::function<double(const model::ModelParams&,
                                    const CommShape&, std::size_t msg)>;

/// Allreduce applicability depends on count divisibility, not only bytes,
/// so that family predicates over (shape, element count, element size).
using AllreduceApplicability =
    std::function<bool(const CommShape&, std::size_t count,
                       std::size_t elem_size)>;

/// One registered algorithm. Every collective family is an instantiation of
/// this record with its call signature (`Fn`) and applicability predicate
/// type (`Applies`); the per-family names below are thin aliases. The
/// `msg` a cost hook sees is the family's natural size: per-process bytes
/// (allgather), total vector bytes (allreduce), payload bytes (bcast),
/// total gathered bytes (allgatherv). How `fn` executes — a chunk task
/// graph (coll/graph.hpp) or a plain coroutine under a PhaseSpan — is its
/// own business: the record carries no execution metadata.
template <class Fn, class Applies>
struct Algo {
  std::string name;
  std::string summary;  ///< one line for `--algo list`
  Fn fn;
  Applies applies;  ///< null = always applicable
  CostFn cost;      ///< null = no estimate
};

using AllgatherAlgo = Algo<AllgatherFn, Applicability>;
using AllreduceAlgo = Algo<AllreduceFn, AllreduceApplicability>;
using BcastAlgo = Algo<BcastFn, Applicability>;
using AllgathervAlgo = Algo<AllgathervFn, Applicability>;
/// Alltoall applicability sees the per-pair block size; alltoallv sees the
/// exchange's total byte count; reduce_scatter predicates like allreduce
/// (count divisibility matters).
using AlltoallAlgo = Algo<AlltoallFn, Applicability>;
using AlltoallvAlgo = Algo<AlltoallvFn, Applicability>;
using ReduceScatterAlgo = Algo<ReduceScatterFn, AllreduceApplicability>;

/// One family's ordered table: registration-order iteration, name lookup,
/// duplicate rejection. `what` names the family in error messages.
template <class A>
class AlgoTable {
 public:
  explicit AlgoTable(const char* what) : what_(what) {}

  void add(A a) {
    if (a.name.empty()) {
      throw std::invalid_argument(std::string("registry: ") + what_ +
                                  " algorithm must have a name");
    }
    if (!a.fn) {
      throw std::invalid_argument(std::string("registry: ") + what_ + " '" +
                                  a.name + "' has no implementation");
    }
    if (find(a.name) != nullptr) {
      throw std::invalid_argument(std::string("registry: duplicate ") + what_ +
                                  " algorithm '" + a.name + "'");
    }
    entries_.push_back(std::move(a));
  }

  const A* find(const std::string& name) const noexcept {
    for (const auto& a : entries_) {
      if (a.name == name) return &a;
    }
    return nullptr;
  }

  const A& get(const std::string& name) const {
    if (const A* a = find(name)) return *a;
    std::string msg = std::string("registry: unknown ") + what_ +
                      " algorithm '" + name + "' (known:";
    for (const auto& a : entries_) msg += " " + a.name;
    msg += ")";
    throw std::invalid_argument(msg);
  }

  std::vector<std::string> names() const {
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& a : entries_) out.push_back(a.name);
    return out;
  }

  const std::deque<A>& entries() const noexcept { return entries_; }

 private:
  const char* what_;
  std::deque<A> entries_;
};

/// Process-wide algorithm registry: one AlgoTable per collective family.
/// Single-threaded (like the simulator); `add_*` throws
/// std::invalid_argument on duplicate names. The per-family methods are
/// kept as thin wrappers so callsites don't churn.
class Registry {
 public:
  /// The registry, with the flat `coll` algorithms already registered.
  static Registry& instance();

  void add_allgather(AllgatherAlgo a) { ag_.add(std::move(a)); }
  void add_allreduce(AllreduceAlgo a) { ar_.add(std::move(a)); }
  void add_bcast(BcastAlgo a) { bc_.add(std::move(a)); }
  void add_allgatherv(AllgathervAlgo a) { agv_.add(std::move(a)); }
  void add_alltoall(AlltoallAlgo a) { a2a_.add(std::move(a)); }
  void add_alltoallv(AlltoallvAlgo a) { a2av_.add(std::move(a)); }
  void add_reduce_scatter(ReduceScatterAlgo a) { rs_.add(std::move(a)); }

  /// Lookup by name; nullptr when absent.
  const AllgatherAlgo* find_allgather(const std::string& name) const noexcept {
    return ag_.find(name);
  }
  const AllreduceAlgo* find_allreduce(const std::string& name) const noexcept {
    return ar_.find(name);
  }
  const BcastAlgo* find_bcast(const std::string& name) const noexcept {
    return bc_.find(name);
  }
  const AllgathervAlgo* find_allgatherv(
      const std::string& name) const noexcept {
    return agv_.find(name);
  }
  const AlltoallAlgo* find_alltoall(const std::string& name) const noexcept {
    return a2a_.find(name);
  }
  const AlltoallvAlgo* find_alltoallv(const std::string& name) const noexcept {
    return a2av_.find(name);
  }
  const ReduceScatterAlgo* find_reduce_scatter(
      const std::string& name) const noexcept {
    return rs_.find(name);
  }

  /// Lookup by name; throws std::invalid_argument listing the known names.
  const AllgatherAlgo& get_allgather(const std::string& name) const {
    return ag_.get(name);
  }
  const AllreduceAlgo& get_allreduce(const std::string& name) const {
    return ar_.get(name);
  }
  const BcastAlgo& get_bcast(const std::string& name) const {
    return bc_.get(name);
  }
  const AllgathervAlgo& get_allgatherv(const std::string& name) const {
    return agv_.get(name);
  }
  const AlltoallAlgo& get_alltoall(const std::string& name) const {
    return a2a_.get(name);
  }
  const AlltoallvAlgo& get_alltoallv(const std::string& name) const {
    return a2av_.get(name);
  }
  const ReduceScatterAlgo& get_reduce_scatter(const std::string& name) const {
    return rs_.get(name);
  }

  std::vector<std::string> allgather_names() const { return ag_.names(); }
  std::vector<std::string> allreduce_names() const { return ar_.names(); }
  std::vector<std::string> bcast_names() const { return bc_.names(); }
  std::vector<std::string> allgatherv_names() const { return agv_.names(); }
  std::vector<std::string> alltoall_names() const { return a2a_.names(); }
  std::vector<std::string> alltoallv_names() const { return a2av_.names(); }
  std::vector<std::string> reduce_scatter_names() const {
    return rs_.names();
  }

  /// Registration-order iteration (for listings and cost-model scans).
  const std::deque<AllgatherAlgo>& allgathers() const noexcept {
    return ag_.entries();
  }
  const std::deque<AllreduceAlgo>& allreduces() const noexcept {
    return ar_.entries();
  }
  const std::deque<BcastAlgo>& bcasts() const noexcept { return bc_.entries(); }
  const std::deque<AllgathervAlgo>& allgathervs() const noexcept {
    return agv_.entries();
  }
  const std::deque<AlltoallAlgo>& alltoalls() const noexcept {
    return a2a_.entries();
  }
  const std::deque<AlltoallvAlgo>& alltoallvs() const noexcept {
    return a2av_.entries();
  }
  const std::deque<ReduceScatterAlgo>& reduce_scatters() const noexcept {
    return rs_.entries();
  }

 private:
  Registry() = default;
  AlgoTable<AllgatherAlgo> ag_{"allgather"};
  AlgoTable<AllreduceAlgo> ar_{"allreduce"};
  AlgoTable<BcastAlgo> bc_{"bcast"};
  AlgoTable<AllgathervAlgo> agv_{"allgatherv"};
  AlgoTable<AlltoallAlgo> a2a_{"alltoall"};
  AlgoTable<AlltoallvAlgo> a2av_{"alltoallv"};
  AlgoTable<ReduceScatterAlgo> rs_{"reduce_scatter"};
};

}  // namespace hmca::coll
