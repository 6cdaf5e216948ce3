// Runtime execution engine: scheduling policies, work stealing, taskloop,
// taskwait, detach events, throttling and counters.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/tdg.hpp"

namespace {

using tdg::Depend;
using tdg::Event;
using tdg::Runtime;
using tdg::SchedulePolicy;
using tdg::TaskOpts;

TEST(Runtime, RunsASingleTask) {
  Runtime rt({.num_threads = 2});
  std::atomic<int> hits{0};
  rt.submit([&] { ++hits; }, {});
  rt.taskwait();
  EXPECT_EQ(hits.load(), 1);
}

// submit() returns the id of a task a worker may already have run and
// recycled; the id must be read while the discovery guard still holds the
// task. Using the returned ids keeps the read alive in optimized builds,
// so a ThreadSanitizer build flags a read after the guard drop.
TEST(Runtime, SubmitReturnsIdsOfTasksAlreadyRecycled) {
  Runtime rt({.num_threads = 4});
  constexpr int kTasks = 4000;
  std::vector<std::uint64_t> ids;
  ids.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) ids.push_back(rt.submit([] {}, {}));
  rt.taskwait();
  for (int i = 1; i < kTasks; ++i) ASSERT_LT(ids[i - 1], ids[i]);
}

TEST(Runtime, ManyIndependentTasksAllRun) {
  Runtime rt({.num_threads = 4});
  constexpr int kTasks = 2000;
  std::atomic<long> sum{0};
  for (int i = 0; i < kTasks; ++i) {
    rt.submit([&sum, i] { sum += i; }, {});
  }
  rt.taskwait();
  EXPECT_EQ(sum.load(), static_cast<long>(kTasks) * (kTasks - 1) / 2);
  EXPECT_EQ(rt.stats().tasks_executed, static_cast<std::uint64_t>(kTasks));
}

TEST(Runtime, DependencyChainExecutesInOrder) {
  Runtime rt({.num_threads = 4});
  constexpr int kLen = 1000;
  int value = 0;  // unsynchronized on purpose: the chain serializes access
  for (int i = 0; i < kLen; ++i) {
    rt.submit([&value, i] {
      EXPECT_EQ(value, i);
      value = i + 1;
    }, {Depend::inout(&value)});
  }
  rt.taskwait();
  EXPECT_EQ(value, kLen);
}

TEST(Runtime, DiamondDependencies) {
  Runtime rt({.num_threads = 4});
  int a = 0;
  std::atomic<int> mids{0};
  int b = 0, c = 0, d = 0;
  rt.submit([&] { a = 1; }, {Depend::out(&a)});
  rt.submit([&] { b = a + 1; ++mids; }, {Depend::in(&a), Depend::out(&b)});
  rt.submit([&] { c = a + 2; ++mids; }, {Depend::in(&a), Depend::out(&c)});
  rt.submit([&] {
    EXPECT_EQ(mids.load(), 2);
    d = b + c;
  }, {Depend::in(&b), Depend::in(&c), Depend::out(&d)});
  rt.taskwait();
  EXPECT_EQ(d, 5);
}

TEST(Runtime, TaskwaitIsReentrant) {
  Runtime rt({.num_threads = 2});
  int x = 0;
  rt.submit([&] { x = 1; }, {Depend::out(&x)});
  rt.taskwait();
  rt.submit([&] { x = 2; }, {Depend::inout(&x)});
  rt.taskwait();
  EXPECT_EQ(x, 2);
  rt.taskwait();  // no pending work: returns immediately
}

// --- policies ----------------------------------------------------------------

TEST(Runtime, LifoPolicyRunsNewestFirstOnSingleThread) {
  Runtime rt({.num_threads = 1, .policy = SchedulePolicy::DepthFirstLifo});
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    rt.submit([&order, i] { order.push_back(i); }, {});
  }
  rt.taskwait();
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1, 0}));
}

TEST(Runtime, FifoPolicyRunsOldestFirstOnSingleThread) {
  Runtime rt({.num_threads = 1, .policy = SchedulePolicy::BreadthFirstFifo});
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    rt.submit([&order, i] { order.push_back(i); }, {});
  }
  rt.taskwait();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Runtime, DepthFirstRunsSuccessorBeforeSiblingRoots) {
  // A's successor B should run immediately after A (cache-reuse heuristic),
  // before the older independent root R that sits deeper in the deque.
  Runtime rt({.num_threads = 1, .policy = SchedulePolicy::DepthFirstLifo});
  std::vector<int> order;
  int a = 0;
  rt.submit([&] { order.push_back(100); }, {});  // root R (oldest)
  rt.submit([&] { order.push_back(0); }, {Depend::out(&a)});   // A
  rt.submit([&] { order.push_back(1); }, {Depend::in(&a)});    // B = succ(A)
  rt.taskwait();
  // LIFO: A runs first (newest among ready after B blocked), then B jumps
  // the queue ahead of R.
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(order[2], 100);
}

// --- taskloop ------------------------------------------------------------------

TEST(Runtime, TaskloopCoversRangeExactlyOnce) {
  Runtime rt({.num_threads = 4});
  constexpr std::int64_t kN = 10007;  // prime: uneven chunks
  std::vector<std::atomic<int>> touched(kN);
  rt.taskloop(
      0, kN, 64,
      [](int, std::int64_t, std::int64_t, tdg::DependList&) {},
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) touched[i]++;
      });
  rt.taskwait();
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(touched[i].load(), 1) << "index " << i;
  }
  EXPECT_EQ(rt.stats().tasks_created, 64u);
}

TEST(Runtime, TaskloopClampsChunksToIterations) {
  Runtime rt({.num_threads = 2});
  std::atomic<int> runs{0};
  rt.taskloop(
      0, 3, 100,
      [](int, std::int64_t, std::int64_t, tdg::DependList&) {},
      [&](std::int64_t, std::int64_t) { ++runs; });
  rt.taskwait();
  EXPECT_EQ(runs.load(), 3);
  EXPECT_EQ(rt.stats().tasks_created, 3u);
}

TEST(Runtime, TaskloopEmptyRangeSubmitsNothing) {
  Runtime rt({.num_threads = 1});
  rt.taskloop(
      5, 5, 8, [](int, std::int64_t, std::int64_t, tdg::DependList&) {},
      [&](std::int64_t, std::int64_t) { FAIL(); });
  rt.taskwait();
  EXPECT_EQ(rt.stats().tasks_created, 0u);
}

TEST(Runtime, DependentTaskloopsPipelinePerChunk) {
  // Two taskloops over the same blocked array: chunk i of loop 2 depends
  // only on chunk i of loop 1 (the paper's per-block dependences).
  Runtime rt({.num_threads = 4});
  constexpr int kBlocks = 16;
  constexpr std::int64_t kN = 1 << 12;
  std::vector<double> v(kN, 0.0);
  auto block_of = [&](std::int64_t lo) {
    return &v[static_cast<std::size_t>(lo)];
  };
  rt.taskloop(
      0, kN, kBlocks,
      [&](int, std::int64_t lo, std::int64_t, tdg::DependList& d) {
        d.push_back(Depend::out(block_of(lo)));
      },
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) v[i] = 1.0;
      });
  rt.taskloop(
      0, kN, kBlocks,
      [&](int, std::int64_t lo, std::int64_t, tdg::DependList& d) {
        d.push_back(Depend::inout(block_of(lo)));
      },
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) v[i] += 1.0;
      });
  rt.taskwait();
  // With 4 threads a loop-1 chunk may finish before loop 2 discovers it;
  // that edge is then pruned rather than created. Either way each chunk
  // pair is ordered exactly once.
  const auto s = rt.stats();
  EXPECT_EQ(s.discovery.edges_created + s.discovery.edges_pruned,
            static_cast<std::uint64_t>(kBlocks));
  EXPECT_EQ(s.discovery.edges_duplicate, 0u);
  for (double x : v) ASSERT_EQ(x, 2.0);
}

// --- detach events -----------------------------------------------------------

TEST(Runtime, DetachedTaskCompletesOnlyAfterFulfill) {
  Runtime rt({.num_threads = 2});
  Event* ev = rt.create_event();
  std::atomic<bool> body_done{false};
  std::atomic<bool> succ_ran{false};
  int x = 0;
  TaskOpts opts;
  opts.detach = ev;
  rt.submit([&] { body_done = true; }, {Depend::out(&x)}, opts);
  rt.submit([&] { succ_ran = true; }, {Depend::in(&x)});
  // Fulfill from the polling hook, but only after the body has returned:
  // models an MPI request completing during scheduling points.
  std::atomic<bool> fulfilled_once{false};
  rt.set_polling_hook([&] {
    if (body_done.load() && !fulfilled_once.exchange(true)) {
      EXPECT_FALSE(succ_ran.load())
          << "successor ran before the detach event was fulfilled";
      ev->fulfill();
    }
  });
  rt.taskwait();
  EXPECT_TRUE(body_done.load());
  EXPECT_TRUE(succ_ran.load());
}

TEST(Runtime, FulfillIsIdempotent) {
  Runtime rt({.num_threads = 2});
  Event* ev = rt.create_event();
  TaskOpts opts;
  opts.detach = ev;
  std::atomic<bool> done{false};
  rt.submit([&] { done = true; }, {}, opts);
  rt.set_polling_hook([&] {
    if (done.load()) {
      ev->fulfill();
      ev->fulfill();
    }
  });
  rt.taskwait();
  EXPECT_EQ(rt.stats().tasks_executed, 1u);
}

// --- polling hook lifetime ------------------------------------------------------

TEST(Runtime, ClearPollingHookWaitsForARunningCall) {
  // A RequestPoller frees the state its hook reads right after
  // clear_polling_hook returns, so the call must not return while a
  // worker is still inside the hook.
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  std::atomic<bool> cleared{false};
  Runtime rt({.num_threads = 2});
  const auto token = rt.set_polling_hook([&] {
    if (entered.exchange(true)) return;  // only the first call holds on
    while (!release.load()) std::this_thread::yield();
  });
  // The idle worker polls at least every 2 ms, parked or not.
  while (!entered.load()) std::this_thread::yield();
  std::thread clearer([&] {
    rt.clear_polling_hook(token);
    cleared = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(cleared.load()) << "returned while the hook was running";
  release = true;
  clearer.join();
  EXPECT_TRUE(cleared.load());
}

TEST(Runtime, PollingHookCanClearItself) {
  // Waiting for the hook's own call would never end.
  std::atomic<bool> armed{false};
  std::atomic<bool> done{false};
  Runtime::PollingHookToken token;
  Runtime rt({.num_threads = 2});
  token = rt.set_polling_hook([&] {
    if (!armed.load() || done.load()) return;
    rt.clear_polling_hook(token);
    done = true;
  });
  armed = true;
  while (!done.load()) std::this_thread::yield();
}

// --- throttling ----------------------------------------------------------------

TEST(Runtime, TotalThrottleBoundsLiveTasks) {
  Runtime::Config cfg;
  cfg.num_threads = 1;
  cfg.throttle.max_total = 8;
  Runtime rt(cfg);
  std::size_t max_live = 0;
  for (int i = 0; i < 200; ++i) {
    rt.submit([] {}, {});
    max_live = std::max(max_live, rt.live_tasks());
  }
  rt.taskwait();
  // submit may momentarily hold max_total + 1 (the task being created).
  EXPECT_LE(max_live, 9u);
  EXPECT_EQ(rt.stats().tasks_executed, 200u);
}

// Both bounds at SIZE_MAX mean "never throttle". The live count is signed
// per slot, so the bound must not be cast to it: SIZE_MAX would read as -1
// and stall every submit.
TEST(Runtime, UnboundedThrottleNeverStalls) {
  Runtime::Config cfg;
  cfg.num_threads = 1;
  cfg.throttle.max_total = std::numeric_limits<std::size_t>::max();
  cfg.throttle.max_ready = std::numeric_limits<std::size_t>::max();
  Runtime rt(cfg);
  int ran = 0;
  for (int i = 0; i < 1000; ++i) rt.submit([&ran] { ++ran; }, {});
  EXPECT_EQ(ran, 0) << "a body ran before taskwait: the producer stalled";
  EXPECT_EQ(rt.live_tasks(), 1000u);
  EXPECT_EQ(rt.metrics().read(rt.metric_ids().throttle_stalls), 0u);
  rt.taskwait();
  EXPECT_EQ(ran, 1000);
}

// A runtime constructed on a thread takes over the thread's producer
// identity and must hand it back when destroyed, in either order: the
// older runtime keeps batching and pushing to its own shard.
void expect_drives_own_shard(Runtime& rt) {
  EXPECT_EQ(rt.metrics_shard(), 0u) << "the thread is not rt's producer";
  int x = 0;
  ASSERT_NO_THROW(rt.begin_batch());
  rt.submit([&x] { x = x * 10 + 1; }, {Depend::inout(&x)});
  rt.submit([&x] { x = x * 10 + 2; }, {Depend::inout(&x)});
  rt.end_batch();
  rt.taskwait();
  EXPECT_EQ(x, 12);
  // Independent tasks pushed to the producer's own deque bottom run
  // newest first; through the inject queue they would run oldest first.
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    rt.submit([&order, i] { order.push_back(i); }, {});
  }
  rt.taskwait();
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1, 0}));
}

TEST(Runtime, DestroyedRuntimeRestoresReplacedProducer) {
  const Runtime::Config cfg{.num_threads = 1,
                            .policy = SchedulePolicy::DepthFirstLifo};
  {
    SCOPED_TRACE("newest destroyed first");
    Runtime a(cfg);
    { Runtime b(cfg); }
    expect_drives_own_shard(a);
  }
  {
    SCOPED_TRACE("older destroyed first");
    Runtime a(cfg);
    auto b = std::make_unique<Runtime>(cfg);
    auto c = std::make_unique<Runtime>(cfg);
    b.reset();  // leaves from the middle: c must not hand the thread to b
    expect_drives_own_shard(*c);
    c.reset();
    expect_drives_own_shard(a);
  }
}

TEST(Runtime, ReadyThrottleMakesProducerHelp) {
  Runtime::Config cfg;
  cfg.num_threads = 1;
  cfg.throttle.max_ready = 0;  // execute every task as soon as submitted
  Runtime rt(cfg);
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    rt.submit([&order, i] { order.push_back(i); }, {});
  }
  EXPECT_EQ(order.size(), 8u);  // all done before taskwait
  rt.taskwait();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

// --- counters / stress ------------------------------------------------------------

TEST(Runtime, CountersReturnToZero) {
  Runtime rt({.num_threads = 4});
  for (int i = 0; i < 500; ++i) rt.submit([] {}, {});
  rt.taskwait();
  EXPECT_EQ(rt.live_tasks(), 0u);
  EXPECT_EQ(rt.ready_tasks(), 0u);
}

TEST(Runtime, ResetStatsClearsCounters) {
  Runtime rt({.num_threads = 1});
  int x = 0;
  rt.submit([&] { x = 1; }, {Depend::out(&x)});
  rt.submit([&] { x = 2; }, {Depend::inout(&x)});
  rt.taskwait();
  rt.reset_stats();
  auto s = rt.stats();
  EXPECT_EQ(s.tasks_created, 0u);
  EXPECT_EQ(s.tasks_executed, 0u);
  EXPECT_EQ(s.discovery.edges_created, 0u);
  EXPECT_EQ(s.discovery_seconds(), 0.0);
}

// gtest names each case after the parameter's bytes, so the struct carries
// no padding: an explicit zeroed tail keeps the names identical between the
// ctest discovery run and the test run.
struct StressParams {
  unsigned threads;
  SchedulePolicy policy;
  std::uint8_t zero_tail[3]{};
};
static_assert(sizeof(StressParams) == 8 &&
              std::has_unique_object_representations_v<StressParams>);

class RuntimeStress : public ::testing::TestWithParam<StressParams> {};

TEST_P(RuntimeStress, RandomLayeredGraphRespectsAllEdges) {
  // Layered DAG: each layer's tasks read a pseudo-random subset of the
  // previous layer's outputs. Each task checks its inputs were produced.
  const auto p = GetParam();
  Runtime rt({.num_threads = p.threads, .policy = p.policy});
  constexpr int kLayers = 20;
  constexpr int kWidth = 25;
  std::vector<std::vector<int>> data(kLayers, std::vector<int>(kWidth, -1));
  std::uint64_t seed = 12345;
  auto rnd = [&seed] {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<int>((seed >> 33) % kWidth);
  };
  for (int w = 0; w < kWidth; ++w) {
    rt.submit([&data, w] { data[0][w] = w; }, {Depend::out(&data[0][w])});
  }
  for (int l = 1; l < kLayers; ++l) {
    for (int w = 0; w < kWidth; ++w) {
      tdg::DependList deps;
      std::vector<int> inputs;
      for (int k = 0; k < 3; ++k) inputs.push_back(rnd());
      for (int in : inputs) deps.push_back(Depend::in(&data[l - 1][in]));
      deps.push_back(Depend::out(&data[l][w]));
      rt.submit(
          [&data, l, w, inputs] {
            int acc = 0;
            for (int in : inputs) {
              EXPECT_NE(data[l - 1][in], -1)
                  << "layer " << l << " ran before its input";
              acc += data[l - 1][in];
            }
            data[l][w] = acc % 1000;
          },
          std::span<const Depend>(deps.data(), deps.size()));
    }
  }
  rt.taskwait();
  for (int w = 0; w < kWidth; ++w) EXPECT_NE(data[kLayers - 1][w], -1);
  EXPECT_EQ(rt.stats().tasks_executed,
            static_cast<std::uint64_t>(kLayers) * kWidth);
}

// --- successor handoff ---------------------------------------------------------

// A chain where every task but the first becomes ready when its
// predecessor completes: under DepthFirstLifo the completing thread runs it
// next without queueing it (the successor handoff). The chain must still
// run in order, and every handed-off task counts as a spawn like a queued
// one: sched.spawns == exec.tasks == N.
class HandoffChain : public ::testing::TestWithParam<unsigned> {};

TEST_P(HandoffChain, RunsInOrderAndCountsEverySpawn) {
  Runtime rt({.num_threads = GetParam()});
  constexpr int kLen = 3000;
  int next = 0;
  std::atomic<int> out_of_order{0};
  for (int i = 0; i < kLen; ++i) {
    rt.submit(
        [&next, &out_of_order, i] {
          if (next != i) ++out_of_order;
          next = i + 1;
        },
        {Depend::inout(&next)});
  }
  rt.taskwait();
  EXPECT_EQ(next, kLen);
  EXPECT_EQ(out_of_order.load(), 0);
  const auto& ids = rt.metric_ids();
  EXPECT_EQ(rt.metrics().read(ids.tasks_executed),
            static_cast<std::uint64_t>(kLen));
  EXPECT_EQ(rt.metrics().read(ids.spawns), static_cast<std::uint64_t>(kLen));
  EXPECT_EQ(rt.ready_tasks(), 0u);
  EXPECT_EQ(rt.metrics().snapshot().find("sched.ready_depth")->level, 0);
}

INSTANTIATE_TEST_SUITE_P(Threads, HandoffChain, ::testing::Values(1u, 2u, 4u));

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndPolicies, RuntimeStress,
    ::testing::Values(StressParams{1, SchedulePolicy::DepthFirstLifo},
                      StressParams{2, SchedulePolicy::DepthFirstLifo},
                      StressParams{4, SchedulePolicy::DepthFirstLifo},
                      StressParams{8, SchedulePolicy::DepthFirstLifo},
                      StressParams{2, SchedulePolicy::BreadthFirstFifo},
                      StressParams{4, SchedulePolicy::BreadthFirstFifo}));

}  // namespace
