// The chunk-granular dataflow engine (coll/graph.hpp): dependency order,
// FIFO determinism, lane admission, external completions, stream nodes,
// fault retry and the chunk policy. `ctest -L dataflow` runs this suite.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "coll/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "trace/trace.hpp"

namespace hmca::coll {
namespace {

constexpr sim::Duration kTick = 1e-6;

// Task bodies are plain lambdas returning named coroutines; the coroutine
// takes everything by value / stable reference so no capture outlives its
// frame.
sim::Task<void> log_after(sim::Engine& eng, std::vector<int>& order, int id,
                          sim::Duration d) {
  if (d > 0) co_await eng.sleep(d);
  order.push_back(id);
}

sim::Task<void> drive(GraphExecutor& exec, TaskGraph& g) {
  co_await exec.run(g);
}

sim::Task<void> drive_expecting_error(GraphExecutor& exec, TaskGraph& g,
                                      bool& threw) {
  try {
    co_await exec.run(g);
  } catch (const sim::SimError&) {
    threw = true;
  }
}

TaskGraph::Body body(sim::Engine& eng, std::vector<int>& order, int id,
                     sim::Duration d = kTick) {
  return [&eng, &order, id, d] { return log_after(eng, order, id, d); };
}

sim::Task<void> satisfy_at(sim::Engine& eng, GraphExecutor& exec, int task,
                           sim::Duration when) {
  co_await eng.sleep(when);
  exec.satisfy(task);
}

TEST(TaskGraph, DependencyEdgesOrderExecution) {
  sim::Engine eng;
  std::vector<int> order;
  TaskGraph g;
  const int a = g.add(TaskKind::kCopy, Lane::kNone, body(eng, order, 0));
  const int b = g.add(TaskKind::kCopy, Lane::kNone, body(eng, order, 1));
  const int c = g.add(TaskKind::kCopy, Lane::kNone, body(eng, order, 2));
  g.depend(b, a);
  g.depend(c, b);
  GraphExecutor exec(eng, obs::null_sink(), 0);
  eng.spawn(drive(exec, g));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(TaskGraph, ReadyQueueIsFifoOverCreationOrder) {
  // Four dependency-free CPU tasks on a 1-slot lane must complete in
  // creation order — this is what keeps graph execution deterministic and
  // timing-equivalent to the legacy sequential copy walk.
  sim::Engine eng;
  std::vector<int> order;
  TaskGraph g;
  for (int i = 0; i < 4; ++i) {
    g.add(TaskKind::kCopy, Lane::kCpu, body(eng, order, i));
  }
  GraphExecutor exec(eng, obs::null_sink(), 0);
  eng.spawn(drive(exec, g));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(exec.pipeline_depth(), 1);
}

TEST(TaskGraph, SelfEdgeAndEmptyBodyRejected) {
  TaskGraph g;
  const int a = g.add(TaskKind::kCopy, Lane::kNone, [] { return noop_task(); });
  EXPECT_THROW(g.depend(a, a), std::invalid_argument);
  EXPECT_THROW(g.add(TaskKind::kCopy, Lane::kNone, nullptr),
               std::invalid_argument);
}

TEST(GraphExecutor, ExternalDependencySatisfiedMidRun) {
  sim::Engine eng;
  std::vector<int> order;
  TaskGraph g;
  const int t = g.add(TaskKind::kRecv, Lane::kNone, body(eng, order, 7, 0));
  g.depend_external(t);
  GraphExecutor exec(eng, obs::null_sink(), 0);
  eng.spawn(drive(exec, g));
  eng.spawn(satisfy_at(eng, exec, t, 5 * kTick));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{7}));
  EXPECT_GE(eng.now(), 5 * kTick);  // ran only after the completion arrived
}

TEST(GraphExecutor, EarlySatisfyBeforeRunIsBuffered) {
  // A completion callback can outrun run() (zero-length recv finishing at
  // post time); the executor buffers it until the graph attaches.
  sim::Engine eng;
  std::vector<int> order;
  TaskGraph g;
  const int t = g.add(TaskKind::kRecv, Lane::kNone, body(eng, order, 3, 0));
  g.depend_external(t);
  GraphExecutor exec(eng, obs::null_sink(), 0);
  exec.satisfy(t);  // before run() starts
  eng.spawn(drive(exec, g));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{3}));
}

TEST(GraphExecutor, DependencyCycleStallsDetectably) {
  sim::Engine eng;
  std::vector<int> order;
  TaskGraph g;
  const int a = g.add(TaskKind::kCopy, Lane::kNone, body(eng, order, 0));
  const int b = g.add(TaskKind::kCopy, Lane::kNone, body(eng, order, 1));
  g.depend(a, b);
  g.depend(b, a);
  GraphExecutor exec(eng, obs::null_sink(), 0);
  bool threw = false;
  eng.spawn(drive_expecting_error(exec, g, threw));
  eng.run();
  EXPECT_TRUE(threw);
  EXPECT_TRUE(order.empty());
}

TEST(GraphExecutor, TransientFaultRetriesWithBackoff) {
  sim::Engine eng;
  trace::Tracer tracer;
  obs::Metrics metrics;
  obs::CollectSink sink(&tracer, &metrics);
  std::vector<int> order;
  TaskGraph g;
  g.add(TaskKind::kSend, Lane::kNone, body(eng, order, 0));
  ExecOptions opts;
  opts.fail_injector = [](int, int attempt) { return attempt < 2; };
  GraphExecutor exec(eng, sink, 0, opts);
  eng.spawn(drive(exec, g));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0}));
  EXPECT_EQ(exec.retries(), 2u);
  EXPECT_EQ(metrics.counter_value("coll.task_retries"), 2.0);
  // Backoff doubles: the success attempt starts no earlier than base + 2x.
  EXPECT_GE(eng.now(), 3 * kTaskRetryBackoff);
}

TEST(GraphExecutor, ExhaustedRetriesSurfaceTheError) {
  sim::Engine eng;
  std::vector<int> order;
  TaskGraph g;
  g.add(TaskKind::kSend, Lane::kNone, body(eng, order, 0));
  ExecOptions opts;
  opts.fail_injector = [](int, int) { return true; };
  GraphExecutor exec(eng, obs::null_sink(), 0, opts);
  bool threw = false;
  eng.spawn(drive_expecting_error(exec, g, threw));
  eng.run();
  EXPECT_TRUE(threw);
  EXPECT_EQ(exec.retries(), static_cast<std::uint64_t>(kMaxTaskRetries));
  EXPECT_TRUE(order.empty());
}

TEST(GraphExecutor, WrappedTasksNeverRetry) {
  // A wrapped task is a macro task holding an SPMD rendezvous: re-running
  // one on a single rank would desync it, so its faults are terminal, with
  // zero retries.
  sim::Engine eng;
  std::vector<int> order;
  TaskGraph g;
  g.add(TaskKind::kWrapped, Lane::kNone, body(eng, order, 0));
  ExecOptions opts;
  opts.fail_injector = [](int, int) { return true; };
  GraphExecutor exec(eng, obs::null_sink(), 0, opts);
  bool threw = false;
  eng.spawn(drive_expecting_error(exec, g, threw));
  eng.run();
  EXPECT_TRUE(threw);
  EXPECT_EQ(exec.retries(), 0u);
}

TEST(GraphExecutor, PipelineDepthReflectsConcurrency) {
  sim::Engine eng;
  trace::Tracer tracer;
  obs::Metrics metrics;
  obs::CollectSink sink(&tracer, &metrics);
  std::vector<int> order;
  TaskGraph g;
  for (int i = 0; i < 3; ++i) {
    g.add(TaskKind::kSend, Lane::kNone, body(eng, order, i));
  }
  GraphExecutor exec(eng, sink, 0);
  eng.spawn(drive(exec, g));
  eng.run();
  EXPECT_EQ(exec.pipeline_depth(), 3);
  const auto* h = metrics.histogram("coll.pipeline_depth");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->max, 3.0);
  // All three ran concurrently: wall time is one tick, not three.
  EXPECT_LT(eng.now(), 2 * kTick);
}

TEST(GraphExecutor, CpuLaneAdmitsOneTaskAtATime) {
  // The copy engine is one slot: ready kCpu tasks queue on it in creation
  // order instead of overlapping.
  sim::Engine eng;
  std::vector<int> order;
  TaskGraph g;
  g.add(TaskKind::kCopy, Lane::kCpu, body(eng, order, 0, 3 * kTick));
  g.add(TaskKind::kCopy, Lane::kCpu, body(eng, order, 1, kTick));
  g.add(TaskKind::kCopy, Lane::kCpu, body(eng, order, 2, kTick));
  GraphExecutor exec(eng, obs::null_sink(), 0);
  eng.spawn(drive(exec, g));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(exec.pipeline_depth(), 1);
  EXPECT_DOUBLE_EQ(eng.now(), 5 * kTick);
}

TEST(GraphExecutor, ShmLaneSerializesApartFromCpuLane) {
  // Two kShm and two kCpu tasks: each lane runs its own two back to back,
  // while the lanes overlap each other, so the graph takes two ticks.
  sim::Engine eng;
  std::vector<int> order;
  TaskGraph g;
  g.add(TaskKind::kCopy, Lane::kShm, body(eng, order, 0));
  g.add(TaskKind::kCopy, Lane::kShm, body(eng, order, 1));
  g.add(TaskKind::kCopy, Lane::kCpu, body(eng, order, 2));
  g.add(TaskKind::kCopy, Lane::kCpu, body(eng, order, 3));
  GraphExecutor exec(eng, obs::null_sink(), 0);
  eng.spawn(drive(exec, g));
  eng.run();
  EXPECT_EQ(order.size(), 4u);
  EXPECT_EQ(exec.pipeline_depth(), 2);
  EXPECT_DOUBLE_EQ(eng.now(), 2 * kTick);
}

TEST(GraphExecutor, EachExecutorOwnsItsLanes) {
  // Lanes belong to one rank's executor: two ranks' kCpu tasks run at the
  // same time, however many each has queued.
  sim::Engine eng;
  std::vector<int> order;
  TaskGraph g0, g1;
  g0.add(TaskKind::kCopy, Lane::kCpu, body(eng, order, 0));
  g1.add(TaskKind::kCopy, Lane::kCpu, body(eng, order, 1));
  GraphExecutor e0(eng, obs::null_sink(), 0);
  GraphExecutor e1(eng, obs::null_sink(), 1);
  eng.spawn(drive(e0, g0));
  eng.spawn(drive(e1, g1));
  eng.run();
  EXPECT_EQ(order.size(), 2u);
  EXPECT_DOUBLE_EQ(eng.now(), kTick);
}

TEST(GraphExecutor, TaskSpansCarryKindAndChunkTags) {
  sim::Engine eng;
  trace::Tracer tracer;
  obs::CollectSink sink(&tracer);
  std::vector<int> order;
  TaskGraph g;
  g.add(TaskKind::kSend, Lane::kNone, body(eng, order, 0),
        TaskOpts{"s2", "phase2", 5, 4096, 3});
  GraphExecutor exec(eng, sink, 0);
  eng.spawn(drive(exec, g));
  eng.run();
  bool task_span = false, phase_span = false;
  for (const auto& s : tracer.spans()) {
    if (s.kind == trace::Kind::kTask) {
      task_span = true;
      EXPECT_EQ(s.label, "task:send:s2#c5");
      EXPECT_EQ(s.bytes, 4096u);
      EXPECT_EQ(s.peer, 3);
    }
    if (s.kind == trace::Kind::kPhase && s.label == "phase2") {
      phase_span = true;
    }
  }
  EXPECT_TRUE(task_span);
  EXPECT_TRUE(phase_span);
}

TEST(GraphExecutor, IdenticalGraphsRunDeterministically) {
  const auto run_once = [] {
    sim::Engine eng;
    std::vector<int> order;
    TaskGraph g;
    std::vector<int> ids;
    for (int i = 0; i < 6; ++i) {
      ids.push_back(g.add(i % 2 == 0 ? TaskKind::kCopy : TaskKind::kSend,
                          i % 2 == 0 ? Lane::kCpu : Lane::kNone,
                          body(eng, order, i, (i + 1) * kTick)));
    }
    g.depend(ids[4], ids[1]);
    g.depend(ids[5], ids[0]);
    GraphExecutor exec(eng, obs::null_sink(), 0);
    eng.spawn(drive(exec, g));
    eng.run();
    return std::make_pair(eng.now(), order);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// ---- Stream nodes ----

TaskGraph::StreamBody stream_body(sim::Engine& eng, std::vector<int>& order,
                                  int base, sim::Duration d = kTick) {
  return [&eng, &order, base, d](int i) {
    return log_after(eng, order, base + i, d);
  };
}

TEST(StreamNode, InstancesRunInReleaseOrder) {
  // Releases arrive 1 tick apart and each instance takes 3 ticks on the
  // one-slot shm lane: instances queue FIFO and run back to back, in the
  // order they were released.
  sim::Engine eng;
  std::vector<int> order;
  TaskGraph g;
  const int s =
      g.add_stream(TaskKind::kShmOut, Lane::kShm, 4,
                   stream_body(eng, order, 100, 3 * kTick));
  EXPECT_EQ(g.size(), 1u);
  GraphExecutor exec(eng, obs::null_sink(), 0);
  eng.spawn(drive(exec, g));
  for (int i = 0; i < 4; ++i) {
    eng.spawn(satisfy_at(eng, exec, s, (i + 1) * kTick));
  }
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{100, 101, 102, 103}));
  EXPECT_EQ(exec.pipeline_depth(), 1);
  EXPECT_DOUBLE_EQ(eng.now(), 13 * kTick);
}

TEST(StreamNode, InterleavesWithPlainShmTasksInFifoOrder) {
  // Plain kShm tasks that become ready between two releases take the lane
  // in between the stream's instances, exactly where one plain task per
  // release would have queued: both graphs run the same order and time.
  const auto run = [](bool as_stream) {
    sim::Engine eng;
    std::vector<int> order;
    TaskGraph g;
    const int gate =
        g.add(TaskKind::kRecv, Lane::kNone, [] { return noop_task(); });
    g.depend_external(gate);
    std::vector<int> releases;  // task satisfied by the i-th release
    if (as_stream) {
      const int s = g.add_stream(TaskKind::kShmOut, Lane::kShm, 3,
                                 stream_body(eng, order, 10));
      releases.assign(3, s);
    } else {
      for (int i = 0; i < 3; ++i) {
        const int t =
            g.add(TaskKind::kShmOut, Lane::kShm, body(eng, order, 10 + i));
        g.depend_external(t);
        releases.push_back(t);
      }
    }
    const int in1 = g.add(TaskKind::kShmIn, Lane::kShm, body(eng, order, 1));
    const int in2 = g.add(TaskKind::kShmIn, Lane::kShm, body(eng, order, 2));
    g.depend(in1, gate);
    g.depend(in2, gate);
    GraphExecutor exec(eng, obs::null_sink(), 0);
    eng.spawn(drive(exec, g));
    // t = 1: release 0; t = 1.5: the gate opens both publishes; t = 2 and
    // 3: releases 1 and 2 queue on the lane behind them.
    eng.spawn(satisfy_at(eng, exec, releases[0], kTick));
    eng.spawn(satisfy_at(eng, exec, gate, 1.5 * kTick));
    eng.spawn(satisfy_at(eng, exec, releases[1], 2 * kTick));
    eng.spawn(satisfy_at(eng, exec, releases[2], 3 * kTick));
    eng.run();
    return std::make_pair(order, eng.now());
  };
  const auto stream = run(true);
  EXPECT_EQ(stream.first, (std::vector<int>{10, 1, 2, 11, 12}));
  EXPECT_DOUBLE_EQ(stream.second, 6 * kTick);
  EXPECT_EQ(stream, run(false));
}

TEST(StreamNode, SpansCarryTheInstanceAsChunkTag) {
  sim::Engine eng;
  trace::Tracer tracer;
  obs::CollectSink sink(&tracer);
  std::vector<int> order;
  TaskGraph g;
  const int s = g.add_stream(TaskKind::kShmOut, Lane::kShm, 3,
                             stream_body(eng, order, 0),
                             TaskOpts{"p3 out", "phase3", 7, 0, -1});
  GraphExecutor exec(eng, sink, 0);
  for (int i = 0; i < 3; ++i) exec.satisfy(s);
  eng.spawn(drive(exec, g));
  eng.run();
  std::vector<std::string> labels;
  int phase_spans = 0;
  for (const auto& sp : tracer.spans()) {
    if (sp.kind == trace::Kind::kTask) labels.push_back(sp.label);
    if (sp.kind == trace::Kind::kPhase && sp.label == "phase3") ++phase_spans;
  }
  EXPECT_EQ(labels, (std::vector<std::string>{"task:shm_out:p3 out#c0",
                                              "task:shm_out:p3 out#c1",
                                              "task:shm_out:p3 out#c2"}));
  EXPECT_EQ(phase_spans, 1);  // one phase span over all three instances
}

TEST(StreamNode, EarlySatisfyBeforeRunIsBuffered) {
  sim::Engine eng;
  std::vector<int> order;
  TaskGraph g;
  const int s = g.add_stream(TaskKind::kShmOut, Lane::kShm, 3,
                             stream_body(eng, order, 0));
  GraphExecutor exec(eng, obs::null_sink(), 0);
  exec.satisfy(s);  // before run() starts
  exec.satisfy(s);
  eng.spawn(drive(exec, g));
  eng.spawn(satisfy_at(eng, exec, s, 5 * kTick));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(eng.now(), 6 * kTick);  // the last waited for its release
}

TEST(StreamNode, OneSatisfyTooManyThrows) {
  sim::Engine eng;
  std::vector<int> order;
  TaskGraph g;
  const int s = g.add_stream(TaskKind::kShmOut, Lane::kShm, 2,
                             stream_body(eng, order, 0));
  GraphExecutor exec(eng, obs::null_sink(), 0);
  bool threw = false;
  struct Overflow {
    static sim::Task<void> at(sim::Engine& eng, GraphExecutor& exec, int s,
                              bool& threw) {
      co_await eng.sleep(kTick);
      exec.satisfy(s);
      exec.satisfy(s);
      try {
        exec.satisfy(s);
      } catch (const std::logic_error&) {
        threw = true;
      }
    }
  };
  eng.spawn(drive(exec, g));
  eng.spawn(Overflow::at(eng, exec, s, threw));
  eng.run();
  EXPECT_TRUE(threw);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(StreamNode, SuccessorWaitsForTheLastInstance) {
  sim::Engine eng;
  std::vector<int> order;
  TaskGraph g;
  const int s = g.add_stream(TaskKind::kShmOut, Lane::kShm, 3,
                             stream_body(eng, order, 0));
  const int after = g.add(TaskKind::kCopy, Lane::kCpu, body(eng, order, 9));
  g.depend(after, s);
  GraphExecutor exec(eng, obs::null_sink(), 0);
  for (int i = 0; i < 3; ++i) {
    eng.spawn(satisfy_at(eng, exec, s, (4 * i + 1) * kTick));
  }
  eng.spawn(drive(exec, g));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 9}));
  EXPECT_DOUBLE_EQ(eng.now(), 11 * kTick);  // last instance 9..10, then 10..11
}

TEST(StreamNode, MalformedStreamsRejected) {
  TaskGraph g;
  const auto noop = [](int) { return noop_task(); };
  EXPECT_THROW(g.add_stream(TaskKind::kShmOut, Lane::kShm, 0, noop),
               std::invalid_argument);
  EXPECT_THROW(g.add_stream(TaskKind::kShmOut, Lane::kShm, 2, nullptr),
               std::invalid_argument);
  const int s = g.add_stream(TaskKind::kShmOut, Lane::kShm, 2, noop);
  const int a = g.add(TaskKind::kCopy, Lane::kNone, [] { return noop_task(); });
  EXPECT_THROW(g.depend(s, a), std::invalid_argument);
  EXPECT_THROW(g.depend_external(s), std::invalid_argument);
  EXPECT_NO_THROW(g.depend(a, s));
}

TEST(StreamNode, OneInstanceRetriesAlone) {
  // The injector sees the stream's id for every instance and counts
  // attempts per instance: failing the first attempt of the second
  // instance started retries that instance only, once, after the backoff,
  // and it still completes before the third (FIFO on the lane).
  sim::Engine eng;
  trace::Tracer tracer;
  obs::Metrics metrics;
  obs::CollectSink sink(&tracer, &metrics);
  std::vector<int> order;
  TaskGraph g;
  const int s = g.add_stream(TaskKind::kShmOut, Lane::kShm, 3,
                             stream_body(eng, order, 0),
                             TaskOpts{"out", "phase3", -1, 0, -1});
  std::vector<std::pair<int, int>> calls;
  int starts = 0;
  ExecOptions opts;
  opts.fail_injector = [&calls, &starts](int task, int attempt) {
    calls.emplace_back(task, attempt);
    if (attempt == 0) ++starts;
    return attempt == 0 && starts == 2;
  };
  GraphExecutor exec(eng, sink, 0, opts);
  for (int i = 0; i < 3; ++i) exec.satisfy(s);
  eng.spawn(drive(exec, g));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(exec.retries(), 1u);
  EXPECT_EQ(metrics.counter_value("coll.task_retries"), 1.0);
  EXPECT_EQ(calls, (std::vector<std::pair<int, int>>{
                       {s, 0}, {s, 0}, {s, 1}, {s, 0}}));
  // The retried instance keeps its one span, stretched by the backoff.
  int task_spans = 0;
  for (const auto& sp : tracer.spans()) {
    if (sp.kind != trace::Kind::kTask) continue;
    ++task_spans;
    if (sp.label == "task:shm_out:out#c1") {
      EXPECT_DOUBLE_EQ(sp.t1 - sp.t0, kTaskRetryBackoff + kTick);
    }
  }
  EXPECT_EQ(task_spans, 3);
  EXPECT_DOUBLE_EQ(eng.now(), 3 * kTick + kTaskRetryBackoff);
}

// ---- RangeProducers ----

TEST(RangeProducers, CoveringIntersectsHalfOpenRanges) {
  RangeProducers p;
  p.add(0, 100, 1);
  p.add(100, 100, 2);
  p.add(0, 0, 3);  // empty ranges never produce
  EXPECT_EQ(p.covering(0, 100), (std::vector<int>{1}));
  EXPECT_EQ(p.covering(50, 100), (std::vector<int>{1, 2}));
  EXPECT_EQ(p.covering(100, 1), (std::vector<int>{2}));
  EXPECT_TRUE(p.covering(200, 50).empty());
}

// ---- Chunk policy ----

class ChunkPolicy : public ::testing::Test {
 protected:
  void TearDown() override { set_chunk_bytes_override(-1); }
};

TEST_F(ChunkPolicy, AutoKeepsSmallTransfersWhole) {
  set_chunk_bytes_override(0);  // force auto regardless of environment
  EXPECT_EQ(chunks_for(0), 1);
  EXPECT_EQ(chunks_for(1), 1);
  EXPECT_EQ(chunks_for(64 * 1024), 1);
  EXPECT_GE(chunks_for(64 * 1024 + 1), 2);
  EXPECT_EQ(chunks_for(16u << 20), kMaxChunks);  // large transfers cap out
}

TEST_F(ChunkPolicy, OverrideSetsGranularityAndCaps) {
  set_chunk_bytes_override(1024);
  EXPECT_EQ(chunks_for(4096), 4);
  EXPECT_EQ(chunks_for(4097), 5);
  EXPECT_EQ(chunks_for(1u << 20), kMaxChunks);  // capped, never unbounded
  set_chunk_bytes_override(-1);                 // back to env / auto
}

TEST_F(ChunkPolicy, ChunkRangesTileTheTransfer) {
  for (const std::size_t bytes : {std::size_t{1}, std::size_t{4097},
                                  std::size_t{65536}, std::size_t{100001}}) {
    const int n = chunks_for(bytes);
    std::size_t expect_off = 0;
    for (int c = 0; c < n; ++c) {
      const auto [off, len] = chunk_range(bytes, n, c);
      EXPECT_EQ(off, expect_off) << "bytes=" << bytes << " chunk=" << c;
      expect_off += len;
    }
    EXPECT_EQ(expect_off, bytes) << "bytes=" << bytes;
  }
}

TEST_F(ChunkPolicy, EnvValueParsesAndRejectsGarbage) {
  set_chunk_bytes_override(-1);
  ASSERT_EQ(setenv("HMCA_CHUNK_BYTES", "2048", 1), 0);
  EXPECT_EQ(configured_chunk_bytes(), 2048u);
  EXPECT_EQ(chunks_for(8192), 4);
  ASSERT_EQ(setenv("HMCA_CHUNK_BYTES", "lots", 1), 0);
  EXPECT_THROW(configured_chunk_bytes(), std::invalid_argument);
  ASSERT_EQ(unsetenv("HMCA_CHUNK_BYTES"), 0);
  EXPECT_EQ(configured_chunk_bytes(), 0u);
}

}  // namespace
}  // namespace hmca::coll
