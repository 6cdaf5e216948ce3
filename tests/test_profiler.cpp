// Profiler: the Section 2.3.1 methodology — work/overhead/idle breakdown
// and task traces.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string_view>
#include <thread>
#include <vector>

#include "core/tdg.hpp"

namespace {

using tdg::Depend;
using tdg::Event;
using tdg::Runtime;

void busy_wait_us(int us) {
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - t0 <
         std::chrono::microseconds(us)) {
  }
}

TEST(Profiler, WorkTimeAccountedForBusyTasks) {
  Runtime rt({.num_threads = 2});
  constexpr int kTasks = 20;
  constexpr int kUsPerTask = 500;
  for (int i = 0; i < kTasks; ++i) {
    rt.submit([] { busy_wait_us(kUsPerTask); }, {});
  }
  rt.taskwait();
  const auto b = rt.profiler().breakdown();
  const double expected = kTasks * kUsPerTask * 1e-6;
  EXPECT_GE(b.work, 0.9 * expected);
  EXPECT_LT(b.work, 5.0 * expected);  // loose upper bound (1-core machine)
  ASSERT_EQ(b.per_thread.size(), 2u);
}

// Untraced, work is estimated from the timed sample of bodies; busy and
// idle time stay exact, so no slot is charged more than it lived.
TEST(Profiler, SampledWorkEstimateTracksBodies) {
  constexpr int kTasks = 256;
  constexpr int kUsPerTask = 200;
  std::vector<double> body_s(kTasks);
  const auto t0 = std::chrono::steady_clock::now();
  Runtime rt({.num_threads = 2});
  for (int i = 0; i < kTasks; ++i) {
    rt.submit(
        [&body_s, i] {
          const auto b0 = std::chrono::steady_clock::now();
          busy_wait_us(kUsPerTask);
          body_s[i] = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - b0)
                          .count();
        },
        {});
  }
  rt.taskwait();
  const auto b = rt.profiler().breakdown();
  const std::chrono::duration<double> lived =
      std::chrono::steady_clock::now() - t0;
  const double expected = kTasks * kUsPerTask * 1e-6;
  EXPECT_GE(b.work, 0.9 * expected);
  ASSERT_EQ(b.per_thread.size(), 2u);
  for (const auto& t : b.per_thread) {
    EXPECT_GE(t.overhead, 0.0);
    EXPECT_LE(t.work + t.overhead + t.idle, lived.count() + 1e-6);
  }
  // A body descheduled by a busy host runs long, and that is work too; a
  // 1-in-16 sample only promises the mean of bodies that look alike.
  const double longest = *std::max_element(body_s.begin(), body_s.end());
  if (longest < 1.5 * kUsPerTask * 1e-6) {
    EXPECT_LE(b.work, 1.1 * expected);
  }
}

TEST(Profiler, IdleAccumulatesWhenNoTasksExist) {
  Runtime rt({.num_threads = 2});
  // Sleep (not busy-wait): on a single-core machine the worker must get
  // scheduled to accumulate idle time.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  rt.taskwait();
  const auto b = rt.profiler().breakdown();
  EXPECT_GT(b.idle, 0.0);
  EXPECT_EQ(b.work, 0.0);
}

// A taskwait with nothing to run charges its whole wait — the failed
// probes and the polling and backoff between them — as non-task time. A
// detached task fulfilled late keeps the producer waiting that long.
TEST(Profiler, ProducerWaitIsChargedToTheLedger) {
  Runtime rt({.num_threads = 1});
  Event* ev = rt.create_event();
  rt.submit([] {}, {}, {.detach = ev});
  std::thread late([ev] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ev->fulfill();
  });
  const auto t0 = std::chrono::steady_clock::now();
  rt.taskwait();
  const std::chrono::duration<double> waited =
      std::chrono::steady_clock::now() - t0;
  late.join();
  const auto b = rt.profiler().breakdown();
  ASSERT_EQ(b.per_thread.size(), 1u);
  EXPECT_GE(b.per_thread[0].idle + b.per_thread[0].overhead,
            0.8 * waited.count());
}

// Every charged span lies between construction and the read, so no thread
// can be charged more than that. A private pool's workers start probing
// before their runtime attaches; each of those probes must be charged from
// its own start, not from time zero.
TEST(Profiler, FreshRuntimeChargesNoMoreThanItsLifetime) {
  for (int round = 0; round < 20; ++round) {
    const auto t0 = std::chrono::steady_clock::now();
    Runtime rt({.num_threads = 4});
    rt.taskwait();
    const auto b = rt.profiler().breakdown();
    const std::chrono::duration<double> lived =
        std::chrono::steady_clock::now() - t0;
    ASSERT_LE(b.work + b.overhead + b.idle, 4 * lived.count() + 1e-6)
        << "round " << round;
  }
}

// Two breakdown() reads count every span up to the moment of each read,
// so their difference never charges more time than the threads had
// between them — even while parked workers charge 2 ms waits whole.
TEST(Profiler, TwoReadsClipSpansToTheirWindow) {
  constexpr unsigned kThreads = 4;
  Runtime rt({.num_threads = kThreads});
  rt.taskwait();
  auto total = [](const tdg::Breakdown& b) {
    return b.work + b.overhead + b.idle;
  };
  for (int i = 0; i < 40; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const double before = total(rt.profiler().breakdown());
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    const double after = total(rt.profiler().breakdown());
    const std::chrono::duration<double> window =
        std::chrono::steady_clock::now() - t0;
    // A span whose kind changes before it is charged may move a few
    // microseconds between busy and idle; the slack covers that.
    ASSERT_LE(after - before, kThreads * window.count() + 1e-4)
        << "read pair " << i;
  }
}

TEST(Profiler, TraceRecordsCompleteAndConsistent) {
  Runtime rt({.num_threads = 2, .trace = true});
  constexpr int kTasks = 50;
  int chain = 0;
  for (int i = 0; i < kTasks; ++i) {
    rt.submit([] { busy_wait_us(20); }, {Depend::inout(&chain)},
              {.label = "chain"});
  }
  rt.taskwait();
  const auto trace = rt.profiler().merged_trace();
  ASSERT_EQ(trace.size(), static_cast<std::size_t>(kTasks));
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto& r = trace[i];
    EXPECT_LE(r.t_create, r.t_end);
    EXPECT_LE(r.t_start, r.t_end);
    EXPECT_LT(r.thread, 2u);
    EXPECT_STREQ(r.label, "chain");
    if (i > 0) {
      EXPECT_GE(r.t_start, trace[i - 1].t_start) << "trace must be sorted";
      // The chain serializes execution: no two bodies overlap.
      EXPECT_GE(r.t_start, trace[i - 1].t_end);
    }
  }
}

// A thread that is neither the producer nor a pool worker completes the
// detached tasks it fulfils. Its trace records go to the shared buffer
// (under its lock), not the producer's, which is recording the tasks it
// runs in taskwait at the same time.
TEST(Profiler, ForeignFulfilRecordsBesideTheProducer) {
  constexpr int kDetached = 2000;
  constexpr int kPlain = 2000;
  Runtime rt({.num_threads = 1, .trace = true});
  static_assert(kDetached == kPlain, "submissions alternate");
  std::vector<Event*> events(kDetached);
  std::vector<std::atomic<bool>> ran(kDetached);
  for (int i = 0; i < kDetached; ++i) {
    events[i] = rt.create_event();
    rt.submit([&ran, i] { ran[i].store(true); }, {},
              {.label = "detached", .detach = events[i]});
    rt.submit([] {}, {}, {.label = "plain"});
  }
  // Fulfil each event as soon as its body has run, in whatever order the
  // producer runs them, so the helper's completions overlap the
  // producer's.
  std::thread helper([&] {
    std::vector<bool> done(kDetached, false);
    for (int left = kDetached; left > 0;) {
      for (int i = 0; i < kDetached; ++i) {
        if (done[i] || !ran[i].load()) continue;
        events[i]->fulfill();
        done[i] = true;
        --left;
      }
    }
  });
  rt.taskwait();
  helper.join();
  const auto trace = rt.profiler().merged_trace();
  ASSERT_EQ(trace.size(), static_cast<std::size_t>(kDetached + kPlain));
  int plain = 0;
  int foreign = 0;
  for (const auto& r : trace) {
    if (std::string_view(r.label) == "plain") {
      ++plain;
      EXPECT_EQ(r.thread, 0u);
    } else if (r.thread == rt.num_threads()) {
      ++foreign;  // completed by the helper, in the foreign slot
    }
  }
  EXPECT_EQ(plain, kPlain);
  // A fulfil that lands between a body's store and its latch decrement
  // leaves the completion to the producer; most land after.
  EXPECT_GT(foreign, 0);
}

TEST(Profiler, TraceDisabledRecordsNothing) {
  Runtime rt({.num_threads = 2, .trace = false});
  for (int i = 0; i < 10; ++i) rt.submit([] {}, {});
  rt.taskwait();
  EXPECT_TRUE(rt.profiler().merged_trace().empty());
}

TEST(Profiler, ResetClearsAccumulatorsAndTrace) {
  Runtime rt({.num_threads = 2, .trace = true});
  for (int i = 0; i < 10; ++i) rt.submit([] { busy_wait_us(50); }, {});
  rt.taskwait();
  rt.profiler().reset();
  const auto b = rt.profiler().breakdown();
  EXPECT_EQ(b.work, 0.0);
  EXPECT_TRUE(rt.profiler().merged_trace().empty());
}

TEST(Profiler, BreakdownAveragesMatchTotals) {
  Runtime rt({.num_threads = 4});
  for (int i = 0; i < 40; ++i) rt.submit([] { busy_wait_us(100); }, {});
  rt.taskwait();
  const auto b = rt.profiler().breakdown();
  EXPECT_NEAR(b.avg_work * 4.0, b.work, 1e-9);
  EXPECT_NEAR(b.avg_idle * 4.0, b.idle, 1e-9);
  EXPECT_NEAR(b.avg_overhead * 4.0, b.overhead, 1e-9);
}

TEST(Profiler, DiscoverySpanCoversSubmissionWindow) {
  Runtime rt({.num_threads = 2});
  const double t0 = tdg::now_seconds();
  int x = 0;
  for (int i = 0; i < 100; ++i) {
    rt.submit([] {}, {Depend::inout(&x)});
  }
  rt.taskwait();
  const double span = rt.stats().discovery_seconds();
  const double elapsed = tdg::now_seconds() - t0;
  EXPECT_GT(span, 0.0);
  EXPECT_LE(span, elapsed + 1e-3);
}

}  // namespace
