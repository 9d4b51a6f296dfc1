// Span-coverage conformance: every registered algorithm, in every
// collective family, must emit the telemetry the diff attribution needs —
// a phase span on every rank and a critical path that classifies into
// cpu/nic/shm resource classes. An algorithm
// that runs silent would align against nothing in hmca-diff, so its
// regressions could never be explained; this suite makes that a test
// failure instead of a blind spot.
#include <gtest/gtest.h>

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "coll/registry.hpp"
#include "core/selector.hpp"
#include "obs/critical_path.hpp"
#include "obs/names.hpp"
#include "obs/sink.hpp"
#include "testing/conformance.hpp"
#include "trace/trace.hpp"

namespace hmca {
namespace {

using testing::conf::Trial;

/// One fixed healthy shape: 2 nodes x 2 ranks, dual rail. Large enough to
/// exercise inter-node phases, small enough that the whole registry sweep
/// stays fast.
Trial coverage_trial() {
  Trial t;
  t.nodes = 2;
  t.ppn = 2;
  t.hcas = 2;
  t.sockets = 1;
  t.msg = 4096;
  t.in_place = false;
  t.fault_plan = "";
  t.seed = 0xc0ffee;
  t.index = 0;
  return t;
}

/// The multi-socket shape: 2 nodes x 4 ranks over 2 sockets, so the
/// hierarchical algorithms stage through their socket level too.
Trial socket_trial() {
  Trial t = coverage_trial();
  t.ppn = 4;
  t.sockets = 2;
  return t;
}

struct Coverage {
  std::size_t spans = 0;
  std::size_t phase_spans = 0;  ///< non-annotation kPhase spans
  std::set<int> phase_ranks;    ///< ranks that emitted a phase span
  double cp_total_us = 0;
  double cp_classified_us = 0;  ///< path time with a non-"" resource class
};

Coverage analyze(const std::vector<trace::Span>& spans) {
  Coverage c;
  c.spans = spans.size();
  for (const auto& s : spans) {
    if (s.kind == trace::Kind::kPhase && !obs::names::is_annotation(s.label)) {
      ++c.phase_spans;
      c.phase_ranks.insert(s.rank);
    }
  }
  const obs::CriticalPathReport cp = obs::analyze_critical_path(spans);
  c.cp_total_us = cp.total * 1e6;
  for (const auto& st : cp.steps) {
    if (*obs::names::span_resource_class(st.kind, st.label) != '\0') {
      c.cp_classified_us += (st.t1 - st.t0) * 1e6;
    }
  }
  return c;
}

/// The shared assertions: every rank annotated with a phase, critical
/// path non-empty and attributable. A rank without a phase span aligns
/// against nothing in hmca-diff, so every rank of every algorithm —
/// members of a hierarchical cascade or a multi-leader group included —
/// must attribute its time to a phase.
void expect_attributable(const std::string& family, const std::string& algo,
                         const Coverage& c, const Trial& t) {
  SCOPED_TRACE(family + " '" + algo + "'");
  EXPECT_GT(c.spans, 0u) << "emitted no spans at all";
  EXPECT_GT(c.phase_spans, 0u) << "emitted no phase annotations";
  EXPECT_EQ(c.phase_ranks.size(), static_cast<std::size_t>(t.procs()))
      << "only " << c.phase_ranks.size() << " of " << t.procs()
      << " ranks emitted a phase span";
  EXPECT_GT(c.cp_total_us, 0.0) << "critical path is empty";
  EXPECT_GT(c.cp_classified_us, 0.0)
      << "no critical-path time classifies into cpu/nic/shm/wait — "
         "hmca-diff could not attribute a regression in this algorithm";
}

class SpanCoverage : public ::testing::Test {
 protected:
  void SetUp() override { core::register_core_algorithms(); }
};

TEST_F(SpanCoverage, Allgathers) {
  for (const Trial& t : {coverage_trial(), socket_trial()}) {
    SCOPED_TRACE("sockets=" + std::to_string(t.sockets));
    const auto shape = testing::conf::shape_of(t);
    for (const auto& algo : coll::Registry::instance().allgathers()) {
      if (algo.applies && !algo.applies(shape, t.msg)) continue;
      trace::Tracer tracer;
      obs::CollectSink sink(&tracer);
      testing::conf::run_allgather(algo.fn, t, sink);
      expect_attributable("allgather", algo.name, analyze(tracer.spans()), t);
    }
  }
}

TEST_F(SpanCoverage, Allgathervs) {
  const Trial t = coverage_trial();
  const int p = t.nodes * t.ppn;
  std::vector<std::size_t> counts;
  for (int r = 0; r < p; ++r) {
    counts.push_back(1000 + 37 * static_cast<std::size_t>(r));
  }
  std::size_t total = 0;
  for (const std::size_t c : counts) total += c;
  const auto shape = testing::conf::shape_of(t);
  for (const auto& algo : coll::Registry::instance().allgathervs()) {
    if (algo.applies && !algo.applies(shape, total)) continue;
    trace::Tracer tracer;
    obs::CollectSink sink(&tracer);
    testing::conf::run_allgatherv(algo.fn, t, counts, &sink);
    expect_attributable("allgatherv", algo.name, analyze(tracer.spans()), t);
  }
}

TEST_F(SpanCoverage, Alltoalls) {
  const Trial t = coverage_trial();
  const std::size_t msg = 2048;
  const auto shape = testing::conf::shape_of(t);
  for (const auto& algo : coll::Registry::instance().alltoalls()) {
    if (algo.applies && !algo.applies(shape, msg)) continue;
    trace::Tracer tracer;
    obs::CollectSink sink(&tracer);
    testing::conf::run_alltoall(algo.fn, t, msg, &sink);
    expect_attributable("alltoall", algo.name, analyze(tracer.spans()), t);
  }
}

TEST_F(SpanCoverage, Alltoallvs) {
  const Trial t = coverage_trial();
  const int p = t.nodes * t.ppn;
  std::vector<std::size_t> counts(static_cast<std::size_t>(p * p));
  std::size_t total = 0;
  for (int i = 0; i < p; ++i) {
    for (int j = 0; j < p; ++j) {
      const std::size_t c = 64 * static_cast<std::size_t>(i + j + 1);
      counts[static_cast<std::size_t>(i * p + j)] = c;
      total += c;
    }
  }
  const auto shape = testing::conf::shape_of(t);
  for (const auto& algo : coll::Registry::instance().alltoallvs()) {
    if (algo.applies && !algo.applies(shape, total)) continue;
    trace::Tracer tracer;
    obs::CollectSink sink(&tracer);
    testing::conf::run_alltoallv(algo.fn, t, counts, &sink);
    expect_attributable("alltoallv", algo.name, analyze(tracer.spans()), t);
  }
}

TEST_F(SpanCoverage, ReduceScatters) {
  const Trial t = coverage_trial();
  const std::size_t count = 96;  // divisible by p = 4
  const auto shape = testing::conf::shape_of(t);
  for (const auto& algo : coll::Registry::instance().reduce_scatters()) {
    if (algo.applies &&
        !algo.applies(shape, count, mpi::dtype_size(mpi::Dtype::kInt32))) {
      continue;
    }
    trace::Tracer tracer;
    obs::CollectSink sink(&tracer);
    testing::conf::run_reduce_scatter(algo.fn, t, count, mpi::Dtype::kInt32,
                                      mpi::ReduceOp::kSum, &sink);
    expect_attributable("reduce_scatter", algo.name, analyze(tracer.spans()),
                        t);
  }
}

TEST_F(SpanCoverage, Allreduces) {
  const Trial t = coverage_trial();
  const std::size_t count = 96;
  const auto shape = testing::conf::shape_of(t);
  for (const auto& algo : coll::Registry::instance().allreduces()) {
    if (algo.applies &&
        !algo.applies(shape, count, mpi::dtype_size(mpi::Dtype::kInt32))) {
      continue;
    }
    trace::Tracer tracer;
    obs::CollectSink sink(&tracer);
    testing::conf::run_allreduce(algo.fn, t, count, mpi::Dtype::kInt32,
                                 mpi::ReduceOp::kSum, &sink);
    expect_attributable("allreduce", algo.name, analyze(tracer.spans()), t);
  }
}

TEST_F(SpanCoverage, Bcasts) {
  for (const Trial& t : {coverage_trial(), socket_trial()}) {
    SCOPED_TRACE("sockets=" + std::to_string(t.sockets));
    const auto shape = testing::conf::shape_of(t);
    for (const auto& algo : coll::Registry::instance().bcasts()) {
      if (algo.applies && !algo.applies(shape, t.msg)) continue;
      trace::Tracer tracer;
      obs::CollectSink sink(&tracer);
      testing::conf::run_bcast(algo.fn, t, &sink);
      expect_attributable("bcast", algo.name, analyze(tracer.spans()), t);
    }
  }
}

}  // namespace
}  // namespace hmca
