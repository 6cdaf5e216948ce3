// Persistent Task Sub-Graph (optimization (p), Section 3.2): discovery-once
// replay, firstprivate update semantics, full-edge recording, the implicit
// end-of-iteration barrier, and interaction with detach/taskloop/inoutset.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/tdg.hpp"

namespace {

using tdg::Depend;
using tdg::PersistentRegion;
using tdg::Runtime;
using tdg::TaskOpts;

TEST(Persistent, ReplaysChainWithUpdatedFirstprivate) {
  Runtime rt({.num_threads = 4});
  constexpr int kIters = 6;
  constexpr int kLen = 50;
  std::vector<int> slot(kLen, -1);
  int chain = 0;
  PersistentRegion region(rt);
  for (int it = 0; it < kIters; ++it) {
    region.begin_iteration();
    for (int k = 0; k < kLen; ++k) {
      // `it` is the firstprivate datum updated by the replay memcpy.
      rt.submit([&slot, k, it] { slot[k] = it; },
                {Depend::inout(&chain), Depend::out(&slot[k])});
    }
    region.end_iteration();
    for (int k = 0; k < kLen; ++k) {
      ASSERT_EQ(slot[k], it) << "iteration " << it << " slot " << k;
    }
  }
  EXPECT_EQ(region.iterations_done(), static_cast<std::uint32_t>(kIters));
  EXPECT_EQ(region.task_count(), static_cast<std::size_t>(kLen));
  EXPECT_EQ(rt.stats().tasks_executed,
            static_cast<std::uint64_t>(kIters) * kLen);
}

TEST(Persistent, EdgesDiscoveredOnlyOnce) {
  Runtime rt({.num_threads = 2});
  int a = 0, b = 0;
  PersistentRegion region(rt);
  std::uint64_t edges_after_first = 0;
  for (int it = 0; it < 5; ++it) {
    region.begin_iteration();
    rt.submit([&] { a = 1; }, {Depend::out(&a)});
    rt.submit([&] { b = a + 1; }, {Depend::in(&a), Depend::out(&b)});
    region.end_iteration();
    if (it == 0) edges_after_first = rt.stats().discovery.edges_created;
  }
  EXPECT_GE(edges_after_first, 1u);
  EXPECT_EQ(rt.stats().discovery.edges_created, edges_after_first)
      << "replay iterations must not re-create edges";
}

TEST(Persistent, AllEdgesRecordedEvenToFinishedPredecessors) {
  // Force the producer to execute each task at submission (ready throttle
  // 0): in normal mode every edge would be pruned, but persistent-mode
  // discovery must record them anyway for correct replay ordering.
  Runtime::Config cfg;
  cfg.num_threads = 1;
  cfg.throttle.max_ready = 0;
  Runtime rt(cfg);
  constexpr int kLen = 20;
  int value = 0;
  PersistentRegion region(rt);
  for (int it = 0; it < 4; ++it) {
    region.begin_iteration();
    for (int i = 0; i < kLen; ++i) {
      rt.submit(
          [&value, i] {
            EXPECT_EQ(value, i);
            value = i + 1;
          },
          {Depend::inout(&value)});
    }
    region.end_iteration();
    EXPECT_EQ(value, kLen);
    value = 0;
  }
  // The chain has kLen-1 edges; all must exist in the cached graph.
  EXPECT_EQ(rt.stats().discovery.edges_created,
            static_cast<std::uint64_t>(kLen - 1));
  EXPECT_EQ(rt.stats().discovery.edges_pruned, 0u);
}

TEST(Persistent, ImplicitBarrierSeparatesIterations) {
  Runtime rt({.num_threads = 4});
  constexpr int kTasks = 16;
  std::atomic<int> completed{0};
  std::atomic<bool> overlap{false};
  int dummy = 0;
  PersistentRegion region(rt);
  for (int it = 0; it < 3; ++it) {
    region.begin_iteration();
    for (int i = 0; i < kTasks; ++i) {
      rt.submit(
          [&completed, &overlap, it] {
            // Every task of iteration `it` may only start once all tasks
            // of earlier iterations have completed (implicit barrier).
            if (completed.load() < it * kTasks) overlap = true;
            ++completed;
          },
          {Depend::in(&dummy)});
    }
    region.end_iteration();
    EXPECT_EQ(completed.load(), (it + 1) * kTasks)
        << "barrier must drain all tasks of iteration " << it;
  }
  EXPECT_FALSE(overlap.load());
}

TEST(Persistent, DiscoverySecondsRecordedPerIteration) {
  Runtime rt({.num_threads = 2});
  int x = 0;
  PersistentRegion region(rt);
  constexpr int kIters = 4;
  for (int it = 0; it < kIters; ++it) {
    region.begin_iteration();
    for (int i = 0; i < 100; ++i) {
      rt.submit([&] { ++x; }, {Depend::inout(&x)});
    }
    region.end_iteration();
  }
  ASSERT_EQ(region.discovery_seconds().size(),
            static_cast<std::size_t>(kIters));
  for (double d : region.discovery_seconds()) EXPECT_GE(d, 0.0);
}

TEST(Persistent, ReplayDiscoveryWindowEndsAtTheLastReplay) {
  // The discovery window spans the submissions (the replays) only: user
  // code between the last one and end_iteration is not discovery.
  Runtime rt({.num_threads = 2});
  int x = 0;
  PersistentRegion region(rt);
  for (int it = 0; it < 3; ++it) {
    region.begin_iteration();
    for (int i = 0; i < 10; ++i) {
      rt.submit([&] { ++x; }, {Depend::inout(&x)});
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    region.end_iteration();
  }
  ASSERT_EQ(region.discovery_seconds().size(), 3u);
  for (double d : region.discovery_seconds()) EXPECT_LT(d, 0.025);
}

TEST(Persistent, TaskloopInsideRegion) {
  Runtime rt({.num_threads = 4});
  constexpr std::int64_t kN = 4096;
  constexpr int kBlocks = 8;
  std::vector<double> v(kN, 0.0);
  PersistentRegion region(rt);
  constexpr int kIters = 5;
  for (int it = 0; it < kIters; ++it) {
    region.begin_iteration();
    rt.taskloop(
        0, kN, kBlocks,
        [&](int, std::int64_t lo, std::int64_t, tdg::DependList& d) {
          d.push_back(Depend::inout(&v[static_cast<std::size_t>(lo)]));
        },
        [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t i = lo; i < hi; ++i) v[i] += 1.0;
        });
    region.end_iteration();
  }
  for (double x : v) ASSERT_EQ(x, static_cast<double>(kIters));
}

TEST(Persistent, InOutSetRedirectSurvivesReplay) {
  Runtime rt({.num_threads = 4});
  constexpr int kMembers = 6;
  std::vector<int> partial(kMembers, 0);
  double x = 0;
  int total = 0;
  PersistentRegion region(rt);
  constexpr int kIters = 4;
  for (int it = 0; it < kIters; ++it) {
    region.begin_iteration();
    for (int m = 0; m < kMembers; ++m) {
      rt.submit([&partial, m, it] { partial[m] = it + 1; },
                {Depend::inoutset(&x)});
    }
    rt.submit(
        [&] {
          int s = 0;
          for (int p : partial) s += p;
          total = s;
        },
        {Depend::in(&x)});
    region.end_iteration();
    EXPECT_EQ(total, kMembers * (it + 1))
        << "consumer observed stale inoutset members at iteration " << it;
  }
  EXPECT_EQ(rt.stats().discovery.redirect_nodes, 1u);
}

TEST(Persistent, DetachEventRefulfilledEachIteration) {
  Runtime rt({.num_threads = 2});
  tdg::Event* ev = rt.create_event();
  std::atomic<bool> body_done{false};
  std::atomic<int> succ_runs{0};
  int x = 0;
  rt.set_polling_hook([&] {
    if (body_done.exchange(false)) ev->fulfill();
  });
  PersistentRegion region(rt);
  constexpr int kIters = 3;
  for (int it = 0; it < kIters; ++it) {
    region.begin_iteration();
    TaskOpts opts;
    opts.detach = ev;
    rt.submit([&] { body_done = true; }, {Depend::out(&x)}, opts);
    rt.submit([&] { ++succ_runs; }, {Depend::in(&x)});
    region.end_iteration();
  }
  EXPECT_EQ(succ_runs.load(), kIters);
}

// A detach event is re-armed after the barrier, not when its task
// completes: a duplicate fulfil that lands after the task completed is a
// no-op, so the next iteration's successor still waits for that
// iteration's own fulfil.
TEST(Persistent, LateDuplicateFulfilIsANoOp) {
  Runtime rt({.num_threads = 2});
  tdg::Event* ev = rt.create_event();
  std::atomic<int> body_runs{0};
  std::atomic<int> fulfilled_iter{-1};  // iteration whose fulfil was sent
  std::atomic<int> succ_iter{-1};
  std::vector<int> succ_saw;            // fulfilled_iter seen by each successor
  int x = 0;
  const auto wait_until = [](const auto& done) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!done()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::yield();
    }
    return true;
  };
  PersistentRegion region(rt);
  constexpr int kIters = 4;
  for (int it = 0; it < kIters; ++it) {
    region.begin_iteration();
    TaskOpts opts;
    opts.detach = ev;
    rt.submit([&] { ++body_runs; }, {Depend::out(&x)}, opts);
    rt.submit(
        [&, it] {
          succ_saw.push_back(fulfilled_iter.load());
          succ_iter = it;
        },
        {Depend::in(&x)});
    ASSERT_TRUE(wait_until([&] { return body_runs.load() == it + 1; }));
    // Give a wrongly released successor the time to run early.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    fulfilled_iter = it;
    ev->fulfill();
    ASSERT_TRUE(wait_until([&] { return succ_iter.load() == it; }));
    ev->fulfill();  // late duplicate: its task has completed
    region.end_iteration();
  }
  ASSERT_EQ(succ_saw.size(), static_cast<std::size_t>(kIters));
  for (int it = 0; it < kIters; ++it) {
    EXPECT_EQ(succ_saw[it], it)
        << "the successor of iteration " << it << " ran before its fulfil";
  }
}

TEST(Persistent, HeavyGraphManyIterationsStress) {
  Runtime rt({.num_threads = 4});
  constexpr int kBlocks = 24;
  constexpr int kLoops = 4;
  constexpr int kIters = 8;
  std::vector<std::vector<double>> data(kLoops + 1,
                                        std::vector<double>(kBlocks, 0.0));
  PersistentRegion region(rt);
  for (int it = 0; it < kIters; ++it) {
    region.begin_iteration();
    for (int l = 0; l < kLoops; ++l) {
      for (int b = 0; b < kBlocks; ++b) {
        rt.submit(
            [&data, l, b] { data[l + 1][b] = data[l][b] + 1.0; },
            {Depend::in(&data[l][b]), Depend::out(&data[l + 1][b])});
      }
    }
    region.end_iteration();
  }
  EXPECT_EQ(rt.stats().tasks_executed,
            static_cast<std::uint64_t>(kBlocks) * kLoops * kIters);
  EXPECT_EQ(region.task_count(),
            static_cast<std::size_t>(kBlocks) * kLoops);
}

/// Counts copy constructions; moves are free. A capture holding one makes
/// the lambda non-trivially-copyable, so replay moves it into place
/// instead of the memcpy.
struct CopyCounter {
  int* copies;
  explicit CopyCounter(int* c) : copies(c) {}
  CopyCounter(const CopyCounter& o) : copies(o.copies) { ++*copies; }
  CopyCounter(CopyCounter&& o) noexcept = default;
  CopyCounter& operator=(const CopyCounter&) = delete;
};

TEST(Persistent, NonTrivialCaptureIsMovedNotCopiedOnReplay) {
  Runtime rt({.num_threads = 2});
  constexpr int kIters = 20;
  int copies = 0;
  int seen = -1;
  PersistentRegion region(rt);
  for (int it = 0; it < kIters; ++it) {
    region.begin_iteration();
    rt.submit([cc = CopyCounter(&copies), &seen, it] { seen = it; },
              {Depend::out(&seen)});
    region.end_iteration();
    ASSERT_EQ(seen, it) << "replayed capture not updated";
  }
  EXPECT_EQ(copies, 0) << "replay copied the capture instead of moving it";
}

// A writer whose fan-out spills its successor list past the inline
// capacity: replays read the frozen list in place, for many iterations and
// across a failed one.
TEST(Persistent, WideFanOutReplaysAndSurvivesAFailedIteration) {
  Runtime rt({.num_threads = 4});
  constexpr int kReaders = 9;
  static_assert(kReaders > static_cast<int>(tdg::Task::kInlineSuccessors));
  constexpr int kIters = 50;
  constexpr int kFailingIter = 17;
  int value = 0;
  std::vector<int> partial(kReaders, 0);
  int total = 0;
  PersistentRegion region(rt);
  for (int it = 0; it < kIters; ++it) {
    region.begin_iteration();
    rt.submit(
        [&value, it] {
          if (it == kFailingIter) throw std::runtime_error("writer down");
          value = it;
        },
        {Depend::out(&value)});
    for (int r = 0; r < kReaders; ++r) {
      rt.submit([&value, &partial, r] { partial[r] = value + r; },
                {Depend::in(&value), Depend::out(&partial[r])});
    }
    tdg::DependList deps;
    for (int r = 0; r < kReaders; ++r) deps.push_back(Depend::in(&partial[r]));
    deps.push_back(Depend::out(&total));
    rt.submit(
        [&partial, &total] {
          int s = 0;
          for (int p : partial) s += p;
          total = s;
        },
        std::span<const Depend>(deps.data(), deps.size()));
    if (it == kFailingIter) {
      try {
        region.end_iteration();
        FAIL() << "failing iteration did not throw";
      } catch (const tdg::TaskGroupError& e) {
        EXPECT_EQ(e.failures().size(), 1u);
        EXPECT_EQ(e.cancelled().size(), static_cast<std::size_t>(kReaders + 1));
      }
      continue;
    }
    region.end_iteration();
    ASSERT_EQ(total, kReaders * it + kReaders * (kReaders - 1) / 2)
        << "iteration " << it;
  }
  EXPECT_EQ(rt.stats().tasks_executed,
            static_cast<std::uint64_t>(kIters - 1) * (kReaders + 2));
  EXPECT_EQ(rt.live_tasks(), 0u);
}

}  // namespace
