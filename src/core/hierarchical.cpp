#include "core/hierarchical.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "coll/allgather.hpp"
#include "coll/graph.hpp"
#include "core/hier_detail.hpp"
#include "core/mha_intra.hpp"
#include "model/cost.hpp"
#include "shm/shm.hpp"

namespace hmca::core {

namespace {

using detail::group_of;
using detail::KeyAlloc;
using shm::op_key;

// Phase 1 via a double-copy shared-memory gather (Mamidala-style): every
// rank copies its contribution in, waits for all, then copies the L-1 peer
// blocks out into its recv slice.
sim::Task<void> shm_gather_phase1(mpi::Comm& comm, int my, hw::BufView send,
                                  hw::BufView node_slice, std::size_t msg,
                                  bool in_place, int node, int local, int l,
                                  std::uint64_t seq) {
  auto region = comm.share().acquire<shm::ShmRegion>(
      node, op_key(comm.ctx(), seq, 1), l, [&] {
        return std::make_shared<shm::ShmRegion>(
            comm.cluster(), node, static_cast<std::size_t>(l) * msg,
            comm.sink());
      });
  const hw::BufView contribution =
      in_place ? node_slice.sub(static_cast<std::size_t>(local) * msg, msg)
               : send;
  co_await region->copy_in_publish(comm.to_global(my), contribution,
                                   static_cast<std::size_t>(local) * msg);
  if (!in_place) {
    // Own block also lands in the recv slice (a local copy, overlapping the
    // shm waits of other ranks).
    co_await comm.cluster().cpu_copy_by(comm.to_global(my),
                                        static_cast<double>(msg));
    hw::copy_payload(node_slice.sub(static_cast<std::size_t>(local) * msg, msg),
                     contribution);
  }
  co_await region->wait_published(static_cast<std::size_t>(l));
  for (std::size_t i = 0; i < static_cast<std::size_t>(l); ++i) {
    const auto c = region->chunk(i);
    if (c.offset == static_cast<std::size_t>(local) * msg) continue;  // own
    co_await region->copy_out(comm.to_global(my), i,
                              node_slice.sub(c.offset, c.len));
  }
}

// Staged phase 1 over a nested partition of the node's local ranks
// (NodePlan). Stage 0 runs MHA-intra inside each innermost group; every
// later stage has the previous stage's group leaders publish their slice
// addresses, then pull their sibling groups' blocks into a shared-memory
// segment homed on their own group, so each inter-group byte crosses the
// group boundary (UPI on socket stages) exactly once; members copy out
// locally. Group spans may be uneven; singleton groups degenerate to a
// seeding copy at stage 0 and to pure drains later.
sim::Task<void> plan_phase1(mpi::Comm& comm, int my, hw::BufView send,
                            hw::BufView node_slice, std::size_t msg,
                            bool in_place, int node, int local, int l,
                            const NodePlan& plan, double offload) {
  auto& cl = comm.cluster();
  const int grank = comm.to_global(my);

  // ---- Stage 0: aggregation inside my innermost group ----
  {
    const auto& firsts = plan.stages.front();
    const int g = group_of(firsts, local);
    const int f = firsts[static_cast<std::size_t>(g)];
    const int end =
        g + 1 < static_cast<int>(firsts.size())
            ? firsts[static_cast<std::size_t>(g) + 1]
            : l;
    const int sz = end - f;
    if (sz > 1) {
      auto& gcomm = comm.world().span_comm(node, f, sz);
      co_await allgather_mha_intra(
          gcomm, local - f, send,
          node_slice.sub(static_cast<std::size_t>(f) * msg,
                         static_cast<std::size_t>(sz) * msg),
          msg, in_place, offload);
    } else if (!in_place && msg > 0) {
      co_await cl.cpu_copy_by(grank, static_cast<double>(msg));
      hw::copy_payload(
          node_slice.sub(static_cast<std::size_t>(local) * msg, msg), send);
    }
  }

  // ---- Stages 1..k: inter-group exchange through shared memory ----
  for (std::size_t st = 1; st < plan.stages.size(); ++st) {
    const auto& child = plan.stages[st - 1];
    const auto& parent = plan.stages[st];
    const int nchildren = static_cast<int>(child.size());
    const int nparents = static_cast<int>(parent.size());
    // One board key per parent group, one region key per child group.
    // Constructed by every rank before any branch so the consumed op
    // sequence numbers stay SPMD-consistent.
    KeyAlloc keys(comm, my, nparents + nchildren);

    const int cg = group_of(child, local);
    const int cf = child[static_cast<std::size_t>(cg)];
    const int csz = (cg + 1 < nchildren
                         ? child[static_cast<std::size_t>(cg) + 1]
                         : l) -
                    cf;
    const int pg = group_of(parent, local);
    const int pf = parent[static_cast<std::size_t>(pg)];
    const int pend =
        pg + 1 < nparents ? parent[static_cast<std::size_t>(pg) + 1] : l;
    // The child groups spanned by my parent group (boundaries nest, so
    // pf and pend are child boundaries too).
    const int clo = group_of(child, pf);
    const int chi = pend >= l ? nchildren : group_of(child, pend);
    const int nsib = chi - clo;
    if (nsib <= 1) continue;  // parent adds no grouping here

    // Segment homed on my child group; all csz members acquire it.
    auto region = comm.share().acquire<shm::ShmRegion>(
        node, keys.key(nparents + cg), csz, [&] {
          return std::make_shared<shm::ShmRegion>(
              cl, node, static_cast<std::size_t>(l) * msg, comm.sink(),
              cl.global_rank(node, cf));
        });
    if (local == cf) {  // child-group leader
      auto board = comm.share().acquire<AddressBoard>(
          node, keys.key(pg), nsib, [&] {
            return std::make_shared<AddressBoard>(comm.engine(), nsib);
          });
      co_await board->put_and_wait(cg - clo, node_slice);
      for (int o = 1; o < nsib; ++o) {
        const int other = clo + (cg - clo + o) % nsib;
        const int of = child[static_cast<std::size_t>(other)];
        const int osz = (other + 1 < nchildren
                             ? child[static_cast<std::size_t>(other) + 1]
                             : l) -
                        of;
        const std::size_t off = static_cast<std::size_t>(of) * msg;
        const std::size_t len = static_cast<std::size_t>(osz) * msg;
        co_await region->copy_in_publish(grank,
                                         board->view(other - clo).sub(off, len),
                                         off, cl.global_rank(node, of));
        hw::copy_payload(node_slice.sub(off, len), region->view(off, len));
      }
    }
    for (int k = 0; k + 1 < nsib; ++k) {
      co_await region->wait_published(static_cast<std::size_t>(k) + 1);
      if (local == cf) continue;  // leader filled its slice while pulling
      const auto c = region->chunk(static_cast<std::size_t>(k));
      co_await region->copy_out(grank, static_cast<std::size_t>(k),
                                node_slice.sub(c.offset, c.len));
    }
  }
}

// Leader-side publish of an empty chunk: a zero-length marker (no copy
// startup) that keeps member slot indices aligned.
sim::Task<void> publish_marker(std::shared_ptr<shm::ShmRegion> region,
                               std::size_t off) {
  region->publish(off, 0);
  co_return;
}

// Leader-side publish of one landed phase-2 chunk at offset `off`.
sim::Task<void> publish_chunk(const std::shared_ptr<shm::ShmRegion>& region,
                              int grank, hw::BufView src, std::size_t off) {
  return src.len > 0 ? region->copy_in_publish(grank, src, off)
                     : publish_marker(region, off);
}

// Phase-3 drain of a non-leader rank: one stream node over the
// publication slots of `region`, whose publish listener releases slot i as
// the leader's i-th copy lands.
void add_member_drains(coll::TaskGraph& g, coll::GraphExecutor& exec,
                       const std::shared_ptr<shm::ShmRegion>& region,
                       int grank, hw::BufView recv, int publishes) {
  const int t = g.add_stream(
      coll::TaskKind::kShmOut, coll::Lane::kShm, publishes,
      [region, grank, recv](int i) {
        return shm::copy_out_published(region, grank,
                                       static_cast<std::size_t>(i), recv);
      },
      coll::TaskOpts{"p3 out", "phase3", -1, 0, -1});
  region->add_publish_listener([&exec, t, publishes](std::size_t idx) {
    if (idx < static_cast<std::size_t>(publishes)) exec.satisfy(t);
  });
}

// A leader's phase-2/3 chunk tasks over its recv buffer `buf`: sends, and
// pre-posted recvs whose landing publishes the chunk into the node's
// region (nullptr on one-rank nodes). In barrier mode every recv feeds one
// no-op fence task and every publish waits on it, so no publish starts
// before the whole exchange has landed — O(recvs + publishes) edges.
struct LeaderTasks {
  LeaderTasks(coll::TaskGraph& graph, coll::GraphExecutor& executor,
              mpi::Comm& comm, int my, hw::BufView recv,
              const std::shared_ptr<shm::ShmRegion>& shared, bool fenced)
      : g(graph),
        exec(executor),
        lcomm(comm.world().leader_comm()),
        node(comm.node_of(my)),
        grank(comm.to_global(my)),
        buf(recv),
        region(shared),
        fence(fenced ? g.add(coll::TaskKind::kRecv, coll::Lane::kNone,
                             [] { return coll::noop_task(); },
                             coll::TaskOpts{"p2 fence", "phase2", -1, 0,
                                            -1})
                     : -1) {}

  // Send of buf[off, off + len) to leader `to`; the caller adds its deps.
  int send(int to, int tag, std::size_t off, std::size_t len,
           const std::string& step, int c) {
    return g.add(
        coll::TaskKind::kSend, coll::Lane::kNone,
        [&lc = lcomm, n = node, to, tag, data = buf.sub(off, len)] {
          return lc.send(n, to, tag, data);
        },
        coll::TaskOpts{"p2 send " + step, "phase2", c, len,
                       lcomm.to_global(to)});
  }

  // Pre-posted recv of buf[off, off + len) from leader `from`, plus the
  // publish of the landed chunk.
  int recv_publish(int from, int tag, std::size_t off, std::size_t len,
                   const std::string& step, int c) {
    const int t_recv = g.add(
        coll::TaskKind::kRecv, coll::Lane::kNone,
        [] { return coll::noop_task(); },
        coll::TaskOpts{"p2 recv " + step, "phase2", c, len,
                       lcomm.to_global(from)});
    g.depend_external(t_recv);
    lcomm.irecv(node, from, tag, buf.sub(off, len))
        .on_done([ex = &exec, t_recv] { ex->satisfy(t_recv); });
    if (fence >= 0) g.depend(fence, t_recv);
    if (region != nullptr) {
      const int t_pub = g.add(
          coll::TaskKind::kShmIn, coll::Lane::kShm,
          [r = region, gr = grank, src = buf.sub(off, len), off] {
            return publish_chunk(r, gr, src, off);
          },
          coll::TaskOpts{"p3 pub " + step, "phase2", c, len, -1});
      g.depend(t_pub, fence >= 0 ? fence : t_recv);
    }
    return t_recv;
  }

  coll::TaskGraph& g;
  coll::GraphExecutor& exec;
  mpi::Comm& lcomm;
  int node;
  int grank;
  hw::BufView buf;
  const std::shared_ptr<shm::ShmRegion>& region;
  int fence;  // fence task id, -1 = publishes follow their own recv
};

// A plan that is one MHA-intra over the whole node (no staging).
bool single_stage(const NodePlan* plan) {
  return plan == nullptr || plan->stages.size() <= 1;
}

// The one execution of every mode: a task graph per rank, phase
// boundaries replaced by byte-range dependencies. Leaders pre-post every
// phase-2 recv; recv completions release chunk sends of the next step and
// the publish task of the landed chunk through external-dependency
// callbacks; members drain publication slots as the leader's publish
// callbacks release them — all three phases stream chunk by chunk. With
// overlap off the same graph moves whole blocks and fences phase 3.
sim::Task<void> hier_graph(mpi::Comm& comm, int my, hw::BufView send,
                           hw::BufView recv, std::size_t msg, bool in_place,
                           HierOptions opts, Phase2Algo algo) {
  auto& cl = comm.cluster();
  const int l = cl.ppn();
  const int n = cl.nodes();
  const int node = comm.node_of(my);
  const int local = comm.node_local_rank(my);
  const bool leader = (local == 0);
  const std::uint64_t seq = comm.next_op_seq(my);
  const std::size_t chunk = static_cast<std::size_t>(l) * msg;
  const std::size_t nbase = static_cast<std::size_t>(node) * chunk;
  const hw::BufView node_slice = recv.sub(nbase, chunk);
  auto& eng = comm.engine();
  obs::Sink& sink = comm.sink();
  const int grank = comm.to_global(my);

  coll::GraphExecutor exec(eng, sink, grank);
  coll::TaskGraph g;
  coll::RangeProducers prod;

  // ---- Phase 1 tasks ----
  if (l > 1 && opts.phase1 == Phase1Mode::kShmGather) {
    // Publication order of the gather is data-driven, so it stays one
    // macro task (faithful to the double-copy baseline it models); phase 2
    // streams against *other* leaders' finer-grained work.
    const int t = g.add(
        coll::TaskKind::kWrapped, coll::Lane::kNone,
        [&comm, my, send, node_slice, msg, in_place, node, local, l, seq] {
          return shm_gather_phase1(comm, my, send, node_slice, msg, in_place,
                                   node, local, l, seq);
        },
        coll::TaskOpts{"shm-gather", "phase1", -1, chunk, -1});
    prod.add(nbase, chunk, t);
  } else if (l > 1 && single_stage(opts.plan)) {
    build_mha_intra_tasks(g, prod, nbase, comm.world().node_comm(node), local,
                          send, node_slice, msg, in_place, opts.offload,
                          "phase1");
  } else if (l > 1) {
    // The staged intra-node exchange is data-driven, so it stays one macro
    // task; phase 2 streams against other leaders.
    const NodePlan* plan = opts.plan;
    const double off = opts.offload;
    const int t = g.add(
        coll::TaskKind::kWrapped, coll::Lane::kNone,
        [&comm, my, send, node_slice, msg, in_place, node, local, l, plan,
         off] {
          return plan_phase1(comm, my, send, node_slice, msg, in_place, node,
                             local, l, *plan, off);
        },
        coll::TaskOpts{"nlevel", "phase1", -1, chunk, -1});
    prod.add(nbase, chunk, t);
  } else if (!in_place && msg > 0) {
    const int t = g.add(
        coll::TaskKind::kCopy, coll::Lane::kCpu,
        [&comm, my, send, recv, msg, in_place] {
          return coll::seed_own_block(comm, my, send, recv, msg, in_place);
        },
        coll::TaskOpts{"seed", "phase1", -1, msg, -1});
    prod.add(nbase, msg, t);
  }

  if (n == 1) {
    if (!g.empty()) co_await exec.run(g);
    co_return;
  }

  std::shared_ptr<shm::ShmRegion> region;
  if (l > 1) {
    region = comm.share().acquire<shm::ShmRegion>(
        node, op_key(comm.ctx(), seq, 2), l, [&] {
          return std::make_shared<shm::ShmRegion>(cl, node, recv.len,
                                                  comm.sink());
        });
  }

  // Barrier mode (overlap off) moves one message per node block (Ring) or
  // per step (RD) and fences phase 3 behind the leader's last phase-2
  // recv. Whole-block first sends already wait on every phase-1 producer
  // of the node block, so phase 1 needs no fence of its own.
  const bool fence = !opts.overlap;
  if (algo == Phase2Algo::kRing) {
    std::vector<std::size_t> block_off(static_cast<std::size_t>(n) + 1);
    for (int k = 0; k <= n; ++k) {
      block_off[static_cast<std::size_t>(k)] =
          static_cast<std::size_t>(k) * chunk;
    }
    detail::build_leader_ring(g, exec, comm, my, recv, block_off, prod, fence,
                              region);
  } else if (leader) {  // Recursive Doubling
    LeaderTasks tasks(g, exec, comm, my, recv, region, fence);
    for (int k = 0; (1 << k) < n; ++k) {
      const int dist = 1 << k;
      const int partner = node ^ dist;
      const std::size_t own_base =
          static_cast<std::size_t>(node & ~(dist - 1)) * chunk;
      const std::size_t partner_base =
          static_cast<std::size_t>(partner & ~(dist - 1)) * chunk;
      const std::size_t len = static_cast<std::size_t>(dist) * chunk;
      const int chunks = fence ? 1 : coll::chunks_for(len);
      const std::string step = "k" + std::to_string(k);
      for (int c = 0; c < chunks; ++c) {
        const auto [coff, clen] = coll::chunk_range(len, chunks, c);
        const int tag = k * coll::kChunkTagStride + c;
        const int t_send =
            tasks.send(partner, tag, own_base + coff, clen, step, c);
        for (const int p : prod.covering(own_base + coff, clen)) {
          g.depend(t_send, p);
        }
        prod.add(partner_base + coff, clen,
                 tasks.recv_publish(partner, tag, partner_base + coff, clen,
                                    step, c));
      }
    }
  } else {
    int publishes = 0;
    for (int k = 0; (1 << k) < n; ++k) {
      publishes +=
          fence ? 1
                : coll::chunks_for(static_cast<std::size_t>(1 << k) * chunk);
    }
    add_member_drains(g, exec, region, grank, recv, publishes);
  }

  co_await exec.run(g);
}

}  // namespace

namespace detail {

void build_leader_ring(coll::TaskGraph& g, coll::GraphExecutor& exec,
                       mpi::Comm& comm, int my, hw::BufView recv,
                       const std::vector<std::size_t>& block_off,
                       const coll::RangeProducers& prod, bool fence,
                       const std::shared_ptr<shm::ShmRegion>& region) {
  const int n = static_cast<int>(block_off.size()) - 1;
  const int node = comm.node_of(my);
  auto block_bytes = [&block_off](int b) {
    return block_off[static_cast<std::size_t>(b) + 1] -
           block_off[static_cast<std::size_t>(b)];
  };
  // Chunk counts derive from the shared geometry alone, so the sender and
  // receiver of every hop and the members' slot count agree. Equal blocks
  // (every allgather) reuse one count.
  const bool chunked = !fence && ring_chunk_tags_fit(n);
  const int stride = chunked ? coll::kChunkTagStride : 1;
  std::vector<int> chunks(static_cast<std::size_t>(n), 1);
  for (int b = 0; chunked && b < n; ++b) {
    chunks[static_cast<std::size_t>(b)] =
        b > 0 && block_bytes(b) == block_bytes(b - 1)
            ? chunks[static_cast<std::size_t>(b) - 1]
            : coll::chunks_for(block_bytes(b));
  }

  if (comm.node_local_rank(my) != 0) {
    int publishes = 0;
    for (int b = 0; b < n; ++b) {
      if (b != node) publishes += chunks[static_cast<std::size_t>(b)];
    }
    add_member_drains(g, exec, region, comm.to_global(my), recv, publishes);
    return;
  }

  LeaderTasks tasks(g, exec, comm, my, recv, region, fence);
  const int right = (node + 1) % n;
  const int left = (node - 1 + n) % n;
  // Recv tasks per chunk of the block received last step (forwarded now)
  // and of the block received this step.
  std::vector<int> prev_recv, cur_recv;
  for (int s = 0; s < n - 1; ++s) {
    const int out_b = (node - s + n) % n;
    const int in_b = (node - s - 1 + 2 * n) % n;
    const int out_chunks = chunks[static_cast<std::size_t>(out_b)];
    const int in_chunks = chunks[static_cast<std::size_t>(in_b)];
    const std::string step = "s" + std::to_string(s);
    cur_recv.assign(static_cast<std::size_t>(in_chunks), -1);
    for (int c = 0; c < std::max(out_chunks, in_chunks); ++c) {
      const int tag = s * stride + c;
      if (c < out_chunks) {
        const auto [coff, clen] =
            coll::chunk_range(block_bytes(out_b), out_chunks, c);
        const std::size_t off =
            block_off[static_cast<std::size_t>(out_b)] + coff;
        const int t_send = tasks.send(right, tag, off, clen, step, c);
        if (s == 0) {
          for (const int p : prod.covering(off, clen)) g.depend(t_send, p);
        } else {
          g.depend(t_send, prev_recv[static_cast<std::size_t>(c)]);
        }
      }
      if (c < in_chunks) {
        const auto [coff, clen] =
            coll::chunk_range(block_bytes(in_b), in_chunks, c);
        cur_recv[static_cast<std::size_t>(c)] = tasks.recv_publish(
            left, tag, block_off[static_cast<std::size_t>(in_b)] + coff, clen,
            step, c);
      }
    }
    prev_recv.swap(cur_recv);
  }
}

}  // namespace detail

Phase2Algo resolve_phase2(const hw::ClusterSpec& spec, int nodes, int ppn,
                          std::size_t msg, Phase2Algo requested) {
  if (requested != Phase2Algo::kAuto) return requested;
  if (!coll::is_power_of_two(nodes)) return Phase2Algo::kRing;
  // Fig. 8 tuning: RD wins while the per-step node chunk (M * L) is small
  // enough that startup costs dominate; Ring wins once the exchange is
  // bandwidth-bound and its finer-grained distribution overlaps better.
  (void)spec;
  const std::size_t chunk =
      msg * static_cast<std::size_t>(std::max(1, ppn));
  return chunk <= kRdRingCrossoverChunk ? Phase2Algo::kRD : Phase2Algo::kRing;
}

sim::Task<void> allgather_hierarchical(mpi::Comm& comm, int my,
                                       hw::BufView send, hw::BufView recv,
                                       std::size_t msg, bool in_place,
                                       HierOptions opts) {
  auto& cl = comm.cluster();
  if (comm.size() != cl.world_size()) {
    throw std::invalid_argument("allgather_hierarchical: world comm required");
  }
  if (recv.len != msg * static_cast<std::size_t>(comm.size())) {
    throw std::invalid_argument("allgather_hierarchical: bad recv size");
  }
  if (!in_place && send.len != msg) {
    throw std::invalid_argument("allgather_hierarchical: bad send size");
  }
  const Phase2Algo algo =
      resolve_phase2(cl.spec(), cl.nodes(), cl.ppn(), msg, opts.phase2);
  co_await hier_graph(comm, my, send, recv, msg, in_place, opts, algo);
}

}  // namespace hmca::core
