// Fault-tolerance subsystem: structured error propagation (task exceptions
// -> graph poisoning -> TaskGroupError at taskwait), the per-task retry
// policy, the hang watchdog, deadline-aware MPI waits, and deterministic
// fault injection in the MPI substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/tdg.hpp"
#include "mpi/interop.hpp"
#include "mpi/mpi.hpp"

namespace {

using tdg::DeadlineError;
using tdg::Depend;
using tdg::Event;
using tdg::PersistentRegion;
using tdg::Runtime;
using tdg::TaskGroupError;
using tdg::UsageError;
using tdg::mpi::Comm;
using tdg::mpi::FaultPlan;
using tdg::mpi::RequestPoller;
using tdg::mpi::Universe;

// ---------------------------------------------------------------------------
// Error propagation and graph poisoning
// ---------------------------------------------------------------------------

TEST(ErrorPropagation, ThrowingTaskReportsAtTaskwait) {
  Runtime rt({.num_threads = 2});
  rt.submit([] { throw std::runtime_error("boom"); }, {},
            {.label = "exploder"});
  try {
    rt.taskwait();
    FAIL() << "taskwait did not throw";
  } catch (const TaskGroupError& e) {
    ASSERT_EQ(e.failures().size(), 1u);
    EXPECT_EQ(e.failures()[0].label, "exploder");
    EXPECT_EQ(e.failures()[0].message, "boom");
    EXPECT_EQ(e.failures()[0].attempts, 1u);
    EXPECT_TRUE(e.cancelled().empty());
    EXPECT_NE(std::string(e.what()).find("exploder"), std::string::npos);
    // The original exception is preserved and rethrowable.
    EXPECT_THROW(e.rethrow_first(), std::runtime_error);
  }
  // The runtime stays usable: the failure was consumed.
  EXPECT_FALSE(rt.has_failures());
  std::atomic<int> ran{0};
  rt.submit([&] { ++ran; }, {});
  rt.taskwait();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ErrorPropagation, DependentsCancelledIndependentsRun) {
  Runtime rt({.num_threads = 2});
  int chain = 0, other = 0;
  std::atomic<int> dependents_ran{0};
  std::atomic<int> independents_ran{0};
  rt.submit([] { throw std::runtime_error("first fails"); },
            {Depend::out(&chain)}, {.label = "root"});
  // Transitive dependents: must be cancelled, bodies never run.
  rt.submit([&] { ++dependents_ran; }, {Depend::inout(&chain)},
            {.label = "dep1"});
  rt.submit([&] { ++dependents_ran; }, {Depend::in(&chain)},
            {.label = "dep2"});
  // Independent subgraph: must still run.
  rt.submit([&] { ++independents_ran; }, {Depend::out(&other)});
  rt.submit([&] { ++independents_ran; }, {Depend::in(&other)});
  try {
    rt.taskwait();
    FAIL() << "taskwait did not throw";
  } catch (const TaskGroupError& e) {
    ASSERT_EQ(e.failures().size(), 1u);
    EXPECT_EQ(e.failures()[0].label, "root");
    ASSERT_EQ(e.cancelled().size(), 2u);
    std::vector<std::string> labels;
    for (const auto& c : e.cancelled()) labels.push_back(c.label);
    EXPECT_NE(std::find(labels.begin(), labels.end(), "dep1"), labels.end());
    EXPECT_NE(std::find(labels.begin(), labels.end(), "dep2"), labels.end());
  }
  EXPECT_EQ(dependents_ran.load(), 0);
  EXPECT_EQ(independents_ran.load(), 2);
  // Counters are consistent after a poisoned graph drained.
  const auto s = rt.stats();
  EXPECT_EQ(s.tasks_failed, 1u);
  EXPECT_EQ(s.tasks_cancelled, 2u);
  EXPECT_EQ(s.tasks_executed, 2u);
  EXPECT_EQ(rt.live_tasks(), 0u);
  EXPECT_EQ(rt.ready_tasks(), 0u);
}

// The successor a failing task's thread keeps for itself (the depth-first
// handoff) is poisoned like a queued one: its body is skipped and the
// cancellation propagates down the chain. One thread always hands off in
// its drain; four exercise the pool workers' handoff.
TEST(ErrorPropagation, HandedOffSuccessorOfFailedTaskIsCancelled) {
  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    Runtime rt({.num_threads = threads});
    int chain = 0;
    std::atomic<int> ran{0};
    std::atomic<bool> go{false};
    // The root waits until its successors are discovered, so they become
    // ready only through its completion.
    rt.submit(
        [&go] {
          while (!go.load()) std::this_thread::yield();
          throw std::runtime_error("root fails");
        },
        {Depend::out(&chain)}, {.label = "root"});
    rt.submit([&] { ++ran; }, {Depend::inout(&chain)}, {.label = "next"});
    rt.submit([&] { ++ran; }, {Depend::inout(&chain)}, {.label = "last"});
    go.store(true);
    try {
      rt.taskwait();
      FAIL() << "taskwait did not throw";
    } catch (const TaskGroupError& e) {
      ASSERT_EQ(e.failures().size(), 1u);
      ASSERT_EQ(e.cancelled().size(), 2u);
      EXPECT_EQ(e.cancelled()[0].label, "next");
      EXPECT_EQ(e.cancelled()[1].label, "last");
    }
    EXPECT_EQ(ran.load(), 0);
    EXPECT_EQ(rt.metrics().read(rt.metric_ids().spawns), 3u);
    EXPECT_EQ(rt.live_tasks(), 0u);
  }
}

TEST(ErrorPropagation, LateDiscoveredDependentOfFailedTaskIsCancelled) {
  // The failed task finishes (its failure is even reported) before the
  // dependent is submitted: the normally-pruned edge to a finished
  // predecessor must still poison the late dependent.
  Runtime rt({.num_threads = 2});
  int x = 0;
  std::atomic<bool> ran{false};
  rt.submit([] { throw std::runtime_error("early"); }, {Depend::out(&x)},
            {.label = "early-fail"});
  EXPECT_THROW(rt.taskwait(), TaskGroupError);
  rt.submit([&] { ran = true; }, {Depend::in(&x)}, {.label = "late-dep"});
  try {
    rt.taskwait();
    FAIL() << "late dependent was not cancelled";
  } catch (const TaskGroupError& e) {
    EXPECT_TRUE(e.failures().empty());
    ASSERT_EQ(e.cancelled().size(), 1u);
    EXPECT_EQ(e.cancelled()[0].label, "late-dep");
  }
  EXPECT_FALSE(ran.load());
}

TEST(ErrorPropagation, LateDependentOfCancelledTaskIsCancelled) {
  // A throws, so B (reading A's output) is cancelled — B finishes in the
  // poisoned state without running. C, submitted after the barrier, reads
  // B's output: its edge to the finished B is pruned without a lock, and
  // that prune must still cancel C.
  Runtime rt({.num_threads = 2});
  int x = 0, y = 0;
  std::atomic<bool> b_ran{false}, c_ran{false};
  rt.submit([] { throw std::runtime_error("A"); }, {Depend::out(&x)},
            {.label = "A"});
  rt.submit([&] { b_ran = true; }, {Depend::in(&x), Depend::out(&y)},
            {.label = "B"});
  try {
    rt.taskwait();
    FAIL() << "taskwait did not throw";
  } catch (const TaskGroupError& e) {
    ASSERT_EQ(e.failures().size(), 1u);
    ASSERT_EQ(e.cancelled().size(), 1u);
    EXPECT_EQ(e.cancelled()[0].label, "B");
  }
  const std::uint64_t pruned_before = rt.stats().discovery.edges_pruned;
  rt.submit([&] { c_ran = true; }, {Depend::in(&y)}, {.label = "C"});
  EXPECT_EQ(rt.stats().discovery.edges_pruned, pruned_before + 1);
  try {
    rt.taskwait();
    FAIL() << "late dependent of a cancelled task was not cancelled";
  } catch (const TaskGroupError& e) {
    EXPECT_TRUE(e.failures().empty());
    ASSERT_EQ(e.cancelled().size(), 1u);
    EXPECT_EQ(e.cancelled()[0].label, "C");
  }
  EXPECT_FALSE(b_ran.load());
  EXPECT_FALSE(c_ran.load());
}

TEST(ErrorPropagation, MultipleFailuresAggregate) {
  Runtime rt({.num_threads = 4});
  for (int i = 0; i < 5; ++i) {
    rt.submit([] { throw std::runtime_error("fail"); }, {},
              {.label = "multi"});
  }
  try {
    rt.taskwait();
    FAIL() << "taskwait did not throw";
  } catch (const TaskGroupError& e) {
    EXPECT_EQ(e.failures().size(), 5u);
  }
  EXPECT_EQ(rt.stats().tasks_failed, 5u);
}

TEST(ErrorPropagation, FailedDetachedTaskDoesNotWedge) {
  // A task that throws before posting the operation that would fulfill its
  // detach event must not leave the latch stuck.
  Runtime rt({.num_threads = 2});
  Event* ev = rt.create_event();
  rt.submit([] { throw std::runtime_error("never posts"); }, {},
            {.label = "detached-fail", .detach = ev});
  EXPECT_THROW(rt.taskwait(), TaskGroupError);
  EXPECT_EQ(rt.live_tasks(), 0u);
}

TEST(ErrorPropagation, NonStdExceptionIsCaptured) {
  Runtime rt({.num_threads = 2});
  rt.submit([] { throw 42; }, {}, {.label = "int-thrower"});
  try {
    rt.taskwait();
    FAIL() << "taskwait did not throw";
  } catch (const TaskGroupError& e) {
    ASSERT_EQ(e.failures().size(), 1u);
    EXPECT_EQ(e.failures()[0].message, "<non-std exception>");
  }
}

// ---------------------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------------------

TEST(Retry, TransientFailureSucceedsWithinBudget) {
  Runtime rt({.num_threads = 2});
  std::atomic<int> calls{0};
  rt.submit(
      [&] {
        if (calls.fetch_add(1) < 2) throw std::runtime_error("transient");
      },
      {}, {.label = "flaky", .max_retries = 3,
           .retry_backoff_seconds = 1e-4});
  rt.taskwait();  // must not throw
  EXPECT_EQ(calls.load(), 3);
  const auto s = rt.stats();
  EXPECT_EQ(s.task_retries, 2u);
  EXPECT_EQ(s.tasks_failed, 0u);
  EXPECT_EQ(s.tasks_executed, 1u);
}

TEST(Retry, BudgetExhaustedReportsAttemptCount) {
  Runtime rt({.num_threads = 2});
  std::atomic<int> calls{0};
  rt.submit(
      [&] {
        ++calls;
        throw std::runtime_error("permanent");
      },
      {}, {.label = "doomed", .max_retries = 2});
  try {
    rt.taskwait();
    FAIL() << "taskwait did not throw";
  } catch (const TaskGroupError& e) {
    ASSERT_EQ(e.failures().size(), 1u);
    EXPECT_EQ(e.failures()[0].attempts, 3u);  // 1 try + 2 retries
  }
  EXPECT_EQ(calls.load(), 3);
  EXPECT_EQ(rt.stats().task_retries, 2u);
}

TEST(Retry, DeferredAttemptWaitsOutItsBackoff) {
  // Attempt k+1 may not start before attempt k failed plus
  // backoff * 2^k. The deadline travels in the deferred queue entry, so
  // this pins that it is not lost on the way. Lower bounds only: a loaded
  // machine can only stretch the gaps.
  Runtime rt({.num_threads = 2});
  std::vector<std::uint64_t> starts;
  rt.submit(
      [&starts] {
        starts.push_back(tdg::now_ns());
        if (starts.size() <= 2) throw std::runtime_error("transient");
      },
      {}, {.label = "backoff", .max_retries = 2,
           .retry_backoff_seconds = 2e-3});
  rt.taskwait();  // must not throw: the third attempt succeeds
  ASSERT_EQ(starts.size(), 3u);
  EXPECT_GE(starts[1] - starts[0], 2'000'000u);
  EXPECT_GE(starts[2] - starts[1], 4'000'000u);
  EXPECT_EQ(rt.stats().task_retries, 2u);
}

TEST(Retry, WorksUnderPersistentReplay) {
  // A persistent task that fails transiently on its first attempt of
  // every iteration must still produce each iteration's result.
  Runtime rt({.num_threads = 2});
  std::atomic<int> attempts{0};
  int out = -1;
  PersistentRegion region(rt);
  constexpr int kIters = 4;
  for (int it = 0; it < kIters; ++it) {
    region.begin_iteration();
    rt.submit(
        [&attempts, &out, it] {
          if (attempts.fetch_add(1) % 2 == 0) {
            throw std::runtime_error("transient");
          }
          out = it;
        },
        {Depend::out(&out)},
        {.label = "flaky-persistent", .max_retries = 1});
    region.end_iteration();
    EXPECT_EQ(out, it);
  }
  EXPECT_EQ(attempts.load(), 2 * kIters);
  EXPECT_EQ(rt.stats().task_retries, static_cast<std::uint64_t>(kIters));
}

// ---------------------------------------------------------------------------
// RuntimeStats task counts
// ---------------------------------------------------------------------------

/// Exact RuntimeStats over a graph with a failing body, its cancelled
/// dependents, retried bodies and inoutset redirect nodes; the counts must
/// not depend on whether metrics collection is enabled, and reset_stats()
/// must restart them. A redirect node that completes counts as executed,
/// one poisoned by a failed member counts as cancelled.
TEST(RuntimeStatsCounts, ExactWithAndWithoutMetrics) {
  for (const bool metrics : {false, true}) {
    SCOPED_TRACE(metrics ? "metrics on" : "metrics off");
    Runtime rt({.num_threads = 2, .metrics = metrics});
    int a = 0, c = 0;
    std::atomic<int> tries{0};
    // Fails on both attempts: one retry, then the final failure.
    rt.submit([] { throw std::runtime_error("fail"); },
              {Depend::out(&a)}, {.label = "fail", .max_retries = 1});
    rt.submit([] {}, {Depend::inout(&a)}, {.label = "dep1"});
    rt.submit([] {}, {Depend::in(&a)}, {.label = "dep2"});
    rt.submit([] {}, {Depend::inoutset(&a)}, {.label = "set1"});
    rt.submit([] {}, {Depend::inoutset(&a)}, {.label = "set2"});
    // Reads the poisoned inoutset generation through a redirect node.
    rt.submit([] {}, {Depend::in(&a)}, {.label = "reader"});
    // Independent inoutset generation whose redirect node runs.
    rt.submit([] {}, {Depend::inoutset(&c)}, {.label = "ok-set1"});
    rt.submit([] {}, {Depend::inoutset(&c)}, {.label = "ok-set2"});
    rt.submit([] {}, {Depend::in(&c)}, {.label = "ok-reader"});
    // Succeeds on its third attempt.
    rt.submit(
        [&tries] {
          if (tries.fetch_add(1) < 2) throw std::runtime_error("transient");
        },
        {}, {.label = "flaky", .max_retries = 2});
    EXPECT_THROW(rt.taskwait(), TaskGroupError);
    auto s = rt.stats();
    EXPECT_EQ(s.tasks_created, 10u);
    EXPECT_EQ(s.internal_nodes, 2u);
    EXPECT_EQ(s.tasks_executed, 5u);  // 4 user tasks + the ok redirect
    EXPECT_EQ(s.tasks_failed, 1u);
    EXPECT_EQ(s.tasks_cancelled, 6u);  // 5 user tasks + the redirect
    EXPECT_EQ(s.task_retries, 3u);

    rt.reset_stats();
    int b = 0, d = 0;
    tries = 0;
    rt.submit([] { throw std::runtime_error("fail"); }, {Depend::out(&b)},
              {.label = "fail2"});
    rt.submit([] {}, {Depend::in(&b)}, {.label = "dep3"});
    rt.submit([] {}, {Depend::inoutset(&d)}, {.label = "ok-set3"});
    rt.submit([] {}, {Depend::inoutset(&d)}, {.label = "ok-set4"});
    rt.submit([] {}, {Depend::in(&d)}, {.label = "ok-reader2"});
    rt.submit(
        [&tries] {
          if (tries.fetch_add(1) < 1) throw std::runtime_error("transient");
        },
        {}, {.label = "flaky2", .max_retries = 1});
    EXPECT_THROW(rt.taskwait(), TaskGroupError);
    s = rt.stats();
    EXPECT_EQ(s.tasks_created, 6u);
    EXPECT_EQ(s.internal_nodes, 1u);
    EXPECT_EQ(s.tasks_executed, 5u);
    EXPECT_EQ(s.tasks_failed, 1u);
    EXPECT_EQ(s.tasks_cancelled, 1u);
    EXPECT_EQ(s.task_retries, 1u);
  }
}

// ---------------------------------------------------------------------------
// Persistent-region failure interplay
// ---------------------------------------------------------------------------

TEST(PersistentFailure, FailedIterationLeavesRegionReusable) {
  Runtime rt({.num_threads = 2});
  int value = 0;
  std::atomic<int> consumer_runs{0};
  PersistentRegion region(rt);
  constexpr int kIters = 5;
  constexpr int kFailingIter = 2;
  for (int it = 0; it < kIters; ++it) {
    region.begin_iteration();
    rt.submit(
        [&value, it] {
          if (it == kFailingIter) throw std::runtime_error("iteration down");
          value = it;
        },
        {Depend::out(&value)}, {.label = "producer"});
    rt.submit([&consumer_runs] { ++consumer_runs; }, {Depend::in(&value)},
              {.label = "consumer"});
    if (it == kFailingIter) {
      try {
        region.end_iteration();
        FAIL() << "failing iteration did not throw";
      } catch (const TaskGroupError& e) {
        ASSERT_EQ(e.failures().size(), 1u);
        EXPECT_EQ(e.failures()[0].label, "producer");
        ASSERT_EQ(e.cancelled().size(), 1u);
        EXPECT_EQ(e.cancelled()[0].label, "consumer");
      }
    } else {
      region.end_iteration();
      EXPECT_EQ(value, it);
    }
  }
  EXPECT_EQ(region.iterations_done(), static_cast<std::uint32_t>(kIters));
  EXPECT_EQ(consumer_runs.load(), kIters - 1);
  EXPECT_EQ(rt.live_tasks(), 0u);
}

TEST(PersistentFailure, FailureDuringDiscoveryIterationStillReplays) {
  Runtime rt({.num_threads = 2});
  std::atomic<int> runs{0};
  int x = 0;
  PersistentRegion region(rt);
  for (int it = 0; it < 3; ++it) {
    region.begin_iteration();
    rt.submit(
        [&runs, &x, it] {
          if (it == 0) throw std::runtime_error("discovery fails");
          x = it;
          ++runs;
        },
        {Depend::out(&x)}, {.label = "disc"});
    if (it == 0) {
      EXPECT_THROW(region.end_iteration(), TaskGroupError);
    } else {
      region.end_iteration();
      EXPECT_EQ(x, it);
    }
  }
  EXPECT_EQ(runs.load(), 2);
}

// ---------------------------------------------------------------------------
// Usage errors (previously fatal aborts)
// ---------------------------------------------------------------------------

TEST(UsageErrors, RecoverableMisuseThrowsInsteadOfAborting) {
  Runtime rt({.num_threads = 1});
  EXPECT_THROW(rt.taskloop(
                   0, 8, /*num_tasks=*/0,
                   [](int, std::int64_t, std::int64_t, tdg::DependList&) {},
                   [](std::int64_t, std::int64_t) {}),
               UsageError);
  {
    PersistentRegion region(rt);
    EXPECT_THROW(PersistentRegion{rt}, UsageError);
    region.begin_iteration();
    EXPECT_THROW(region.begin_iteration(), UsageError);
    region.end_iteration();
    EXPECT_THROW(region.end_iteration(), UsageError);
  }
  // The runtime survives all of the above.
  std::atomic<int> ran{0};
  rt.submit([&] { ++ran; }, {});
  rt.taskwait();
  EXPECT_EQ(ran.load(), 1);
}

// ---------------------------------------------------------------------------
// Hang watchdog
// ---------------------------------------------------------------------------

TEST(Watchdog, UnfulfilledDetachEventTripsDeadlineWithDiagnostic) {
  Runtime::Config cfg;
  cfg.num_threads = 2;
  cfg.watchdog.deadline_seconds = 0.2;
  Runtime rt(cfg);
  Event* ev = rt.create_event();
  rt.submit([] {}, {}, {.label = "stuck-comm", .detach = ev});
  try {
    rt.taskwait();
    FAIL() << "taskwait did not trip the watchdog";
  } catch (const DeadlineError& e) {
    const std::string report = e.report();
    EXPECT_NE(report.find("taskwait"), std::string::npos) << report;
    EXPECT_NE(report.find("live tasks: 1"), std::string::npos) << report;
    EXPECT_NE(report.find("unfulfilled detach event"), std::string::npos)
        << report;
    EXPECT_NE(report.find("stuck-comm"), std::string::npos) << report;
  }
  // Unwedge so teardown can drain.
  ev->fulfill();
  rt.taskwait();
}

TEST(Watchdog, CallbackModeReportsAndKeepsWaiting) {
  Runtime::Config cfg;
  cfg.num_threads = 2;
  cfg.watchdog.deadline_seconds = 0.05;
  std::atomic<int> reports{0};
  std::string first_report;
  std::mutex report_mu;
  cfg.watchdog.on_deadline = [&](const std::string& r) {
    std::lock_guard<std::mutex> g(report_mu);
    if (reports.fetch_add(1) == 0) first_report = r;
  };
  Runtime rt(cfg);
  Event* ev = rt.create_event();
  rt.submit([] {}, {}, {.label = "slow-event", .detach = ev});
  // Fulfill from a helper thread after a few deadline periods elapse.
  std::thread unblocker([&] {
    while (reports.load() < 2) std::this_thread::yield();
    ev->fulfill();
  });
  rt.taskwait();  // must not throw: callback mode keeps waiting
  unblocker.join();
  EXPECT_GE(reports.load(), 2);
  std::lock_guard<std::mutex> g(report_mu);
  EXPECT_NE(first_report.find("slow-event"), std::string::npos);
}

// The progress epoch is read from the exec.* counters, which count with
// the timing metrics off too: a wedged detach event still trips the
// deadline, after tasks that did complete moved the epoch.
TEST(Watchdog, TripsWithMetricsOff) {
  Runtime::Config cfg;
  cfg.num_threads = 2;
  cfg.metrics = false;
  cfg.watchdog.deadline_seconds = 0.2;
  Runtime rt(cfg);
  for (int i = 0; i < 16; ++i) rt.submit([] {}, {});
  rt.taskwait();
  Event* ev = rt.create_event();
  rt.submit([] {}, {}, {.label = "stuck-metrics-off", .detach = ev});
  try {
    rt.taskwait();
    FAIL() << "taskwait did not trip the watchdog";
  } catch (const DeadlineError& e) {
    EXPECT_NE(e.report().find("stuck-metrics-off"), std::string::npos)
        << e.report();
  }
  ev->fulfill();
  rt.taskwait();
}

TEST(Watchdog, QuietWhenTasksProgress) {
  Runtime::Config cfg;
  cfg.num_threads = 2;
  cfg.watchdog.deadline_seconds = 0.5;
  Runtime rt(cfg);
  std::atomic<int> n{0};
  for (int i = 0; i < 64; ++i) rt.submit([&n] { ++n; }, {});
  rt.taskwait();  // plenty of progress: no DeadlineError
  EXPECT_EQ(n.load(), 64);
}

// ---------------------------------------------------------------------------
// Deadline-aware MPI waits
// ---------------------------------------------------------------------------

TEST(CommDeadline, WaitForNeverMatchedIrecvNamesThePendingRequest) {
  Universe::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      double buf = 0;
      auto r = comm.irecv(&buf, sizeof buf, /*src=*/1, /*tag=*/7);
      try {
        comm.wait_for(r, 0.1);
        FAIL() << "wait_for did not expire";
      } catch (const DeadlineError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("irecv"), std::string::npos) << msg;
        EXPECT_NE(msg.find("src=1"), std::string::npos) << msg;
        EXPECT_NE(msg.find("tag=7"), std::string::npos) << msg;
      }
    }
    // Rank 1 deliberately never sends.
  });
}

TEST(CommDeadline, DefaultWaitDeadlineArmsPlainWait) {
  Universe::Options opts;
  opts.default_wait_deadline_seconds = 0.1;
  EXPECT_THROW(
      Universe::run(
          2,
          [](Comm& comm) {
            if (comm.rank() == 0) {
              double buf = 0;
              comm.recv(&buf, sizeof buf, 1, 3);  // never sent
            }
          },
          opts),
      DeadlineError);
}

TEST(CommDeadline, WaitallForReportsOnlyPendingRequests) {
  Universe::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      double a = 0, b = 0;
      std::vector<tdg::mpi::Request> rs;
      rs.push_back(comm.irecv(&a, sizeof a, 1, 1));  // will be sent
      rs.push_back(comm.irecv(&b, sizeof b, 1, 99));  // never sent
      try {
        comm.waitall_for(rs, 0.3);
        FAIL() << "waitall_for did not expire";
      } catch (const DeadlineError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("tag=99"), std::string::npos) << msg;
        EXPECT_EQ(msg.find("tag=1 "), std::string::npos) << msg;
      }
    } else {
      double v = 1.5;
      comm.send(&v, sizeof v, 0, 1);
    }
  });
}

TEST(CommDeadline, FiresExactlyOnceUnderStragglerAndDuplicates) {
  // One expired wait throws exactly one DeadlineError; the request is
  // still live afterwards and a later wait can pick it up once the
  // straggler's message lands — injection must not multiply the throw.
  Universe::Options opts;
  opts.faults.seed = 31;
  opts.faults.duplicate_probability = 0.5;
  opts.faults.straggler_ranks = {1};
  opts.faults.straggler_delay_seconds = 0.3;
  Universe::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      double in = -1;
      auto r = comm.irecv(&in, sizeof in, 1, 2);
      int deadline_errors = 0;
      try {
        comm.wait_for(r, 0.05);
      } catch (const DeadlineError&) {
        ++deadline_errors;
      }
      EXPECT_EQ(deadline_errors, 1);
      EXPECT_FALSE(r.done());
      comm.wait_for(r, 10.0);  // the straggler delivers eventually
      EXPECT_EQ(in, 6.5);
      comm.barrier();
    } else {
      double v = 6.5;
      comm.wait(comm.isend(&v, sizeof v, 0, 2));
      comm.barrier();
    }
  }, opts);
}

TEST(CommDeadline, WaitallForReportsEveryIncompleteRequest) {
  // A partially-completed set under duplicate injection: the report must
  // name each incomplete request and omit every completed one.
  Universe::Options opts;
  opts.faults.seed = 37;
  opts.faults.duplicate_probability = 0.5;
  Universe::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      double a = 0, b = 0, c = 0, d = 0;
      std::vector<tdg::mpi::Request> rs;
      rs.push_back(comm.irecv(&a, sizeof a, 1, 1));   // sent
      rs.push_back(comm.irecv(&b, sizeof b, 1, 97));  // never sent
      rs.push_back(comm.irecv(&c, sizeof c, 1, 2));   // sent
      rs.push_back(comm.irecv(&d, sizeof d, 1, 98));  // never sent
      try {
        comm.waitall_for(rs, 0.3);
        FAIL() << "waitall_for did not expire";
      } catch (const DeadlineError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("tag=97"), std::string::npos) << msg;
        EXPECT_NE(msg.find("tag=98"), std::string::npos) << msg;
        EXPECT_EQ(msg.find("tag=1 "), std::string::npos) << msg;
        EXPECT_EQ(msg.find("tag=2 "), std::string::npos) << msg;
      }
      comm.barrier();
    } else {
      double v = 1.5;
      comm.send(&v, sizeof v, 0, 1);
      comm.send(&v, sizeof v, 0, 2);
      comm.barrier();
    }
  }, opts);
}

TEST(CommDeadline, DeadlineErrorDoesNotLeakThePollingHook) {
  // A DeadlineError unwinding past a RequestPoller must leave the hook
  // machinery consistent: the surviving poller still completes later
  // requests, and once it is destroyed a fresh hook installs cleanly.
  Universe::Options opts;
  opts.faults.seed = 41;
  opts.faults.straggler_ranks = {1};
  opts.faults.straggler_delay_seconds = 0.2;
  Universe::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      Runtime rt({.num_threads = 2});
      {
        RequestPoller poller(rt, comm);
        double in = -1;
        auto r = comm.irecv(&in, sizeof in, 1, 3);
        EXPECT_THROW(comm.wait_for(r, 0.05), DeadlineError);
        // The poller's hook survived the unwind: a tracked request still
        // completes through runtime polling.
        tdg::Event* ev = rt.create_event();
        rt.submit([&, ev] { poller.complete_on_event(r, ev); }, {},
                  {.label = "late-recv", .detach = ev});
        rt.taskwait();
        EXPECT_EQ(in, 8.25);
      }
      // The destroyed poller uninstalled its hook; a fresh one installs
      // and is actually invoked: only the hook fulfills the detach event,
      // so this taskwait can complete no other way.
      std::atomic<int> hook_calls{0};
      tdg::Event* ev2 = rt.create_event();
      auto token = rt.set_polling_hook([&hook_calls, ev2] {
        if (hook_calls.fetch_add(1) == 3) ev2->fulfill();
      });
      rt.submit([] {}, {}, {.label = "hook-driven", .detach = ev2});
      rt.taskwait();
      EXPECT_GT(hook_calls.load(), 3);
      rt.clear_polling_hook(token);
      comm.barrier();
    } else {
      double v = 8.25;
      comm.wait(comm.isend(&v, sizeof v, 0, 3));
      comm.barrier();
    }
  }, opts);
}

// ---------------------------------------------------------------------------
// Universe exception propagation
// ---------------------------------------------------------------------------

TEST(Universe, RankExceptionRethrownOnJoiningThread) {
  try {
    Universe::run(3, [](Comm& comm) {
      if (comm.rank() == 1) throw std::runtime_error("rank 1 died");
    });
    FAIL() << "Universe::run did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 1 died");
  }
}

TEST(Universe, LowestFailingRankWins) {
  try {
    Universe::run(4, [](Comm& comm) {
      throw std::runtime_error("rank " + std::to_string(comm.rank()));
    });
    FAIL() << "Universe::run did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 0");
  }
}

TEST(Universe, BadArgumentsThrowUsageError) {
  EXPECT_THROW(Universe::run(0, [](Comm&) {}), UsageError);
  EXPECT_THROW(Universe::run(2,
                             [](Comm& comm) {
                               double v = 0;
                               comm.isend(&v, sizeof v, /*dest=*/7, 0);
                             }),
               UsageError);
}

// ---------------------------------------------------------------------------
// Deterministic fault injection
// ---------------------------------------------------------------------------

TEST(FaultInjection, DelayedMessagesStillDeliverCorrectData) {
  Universe::Options opts;
  opts.faults.seed = 42;
  opts.faults.delay_probability = 0.5;
  opts.faults.delay_seconds = 0.02;
  Universe::run(2, [](Comm& comm) {
    const int peer = 1 - comm.rank();
    constexpr int kMsgs = 24;
    for (int i = 0; i < kMsgs; ++i) {
      double out = comm.rank() * 100.0 + i, in = -1;
      auto s = comm.isend(&out, sizeof out, peer, i);
      auto r = comm.irecv(&in, sizeof in, peer, i);
      comm.wait_for(r, 10.0);
      comm.wait_for(s, 10.0);
      ASSERT_EQ(in, peer * 100.0 + i);
    }
    if (comm.rank() == 0) {
      EXPECT_GT(comm.fault_stats().delays, 0u);
    }
  }, opts);
}

TEST(FaultInjection, SameSeedSameFaults) {
  auto run_once = [](std::uint64_t seed) {
    tdg::mpi::FaultStats out{};
    Universe::Options opts;
    opts.faults.seed = seed;
    opts.faults.delay_probability = 0.3;
    opts.faults.delay_seconds = 0.001;
    opts.faults.duplicate_probability = 0.3;
    opts.faults.reorder_probability = 0.3;
    Universe::run(2, [&out](Comm& comm) {
      const int peer = 1 - comm.rank();
      for (int i = 0; i < 32; ++i) {
        double v = i, in = -1;
        auto s = comm.isend(&v, sizeof v, peer, i);
        auto r = comm.irecv(&in, sizeof in, peer, i);
        comm.wait_for(r, 10.0);
        comm.wait_for(s, 10.0);
      }
      comm.barrier();
      if (comm.rank() == 0) out = comm.fault_stats();
    }, opts);
    return out;
  };
  const auto a = run_once(7);
  const auto b = run_once(7);
  const auto c = run_once(8);
  EXPECT_EQ(a.delays, b.delays);
  EXPECT_EQ(a.duplicates, b.duplicates);
  EXPECT_EQ(a.reorders, b.reorders);
  EXPECT_GT(a.delays + a.duplicates + a.reorders, 0u);
  // A different seed draws a different plan (overwhelmingly likely).
  EXPECT_TRUE(a.delays != c.delays || a.duplicates != c.duplicates ||
              a.reorders != c.reorders);
}

TEST(FaultInjection, StragglerDelayBeyondDeadlineNamesPendingRequest) {
  // The acceptance scenario: a seeded plan makes rank 1 a straggler whose
  // messages arrive far beyond the watchdog deadline; the deadline-aware
  // wait must produce a diagnostic naming the pending request.
  Universe::Options opts;
  opts.faults.seed = 99;
  opts.faults.straggler_ranks = {1};
  opts.faults.straggler_delay_seconds = 5.0;
  Universe::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      double in = -1;
      auto r = comm.irecv(&in, sizeof in, 1, 13);
      try {
        comm.wait_for(r, 0.2);
        FAIL() << "straggler message arrived before the deadline";
      } catch (const DeadlineError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("irecv src=1 tag=13"), std::string::npos) << msg;
        EXPECT_NE(msg.find("pending"), std::string::npos) << msg;
      }
      // Collectives are never perturbed: the barrier both quiesces rank 1's
      // counter updates and proves the universe is still functional.
      comm.barrier();
      EXPECT_GT(comm.fault_stats().straggler_delays, 0u);
    } else {
      double v = 3.25;
      comm.wait(comm.isend(&v, sizeof v, 0, 13));  // eager: completes now
      comm.barrier();
    }
  }, opts);
}

TEST(FaultInjection, StragglerMessageEventuallyArrives) {
  Universe::Options opts;
  opts.faults.seed = 5;
  opts.faults.straggler_ranks = {1};
  opts.faults.straggler_delay_seconds = 0.05;
  Universe::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      double in = -1;
      auto r = comm.irecv(&in, sizeof in, 1, 4);
      comm.wait_for(r, 10.0);
      EXPECT_EQ(in, 2.5);
    } else {
      double v = 2.5;
      comm.wait(comm.isend(&v, sizeof v, 0, 4));
    }
  }, opts);
}

TEST(FaultInjection, WatchdogReportNamesPendingRequestUnderStraggler) {
  // Full-stack acceptance: runtime watchdog + RequestPoller diagnostic.
  // A detached receive task depends on a straggler's message that cannot
  // arrive before the watchdog deadline; the taskwait DeadlineError must
  // name the pending request and the owning task, and embed the per-rank
  // heartbeat/status table plus the fault counters injected since the
  // poller armed the diagnostic.
  Universe::Options opts;
  opts.faults.seed = 21;
  opts.faults.straggler_ranks = {1};
  opts.faults.straggler_delay_seconds = 30.0;
  Universe::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      Runtime::Config cfg;
      cfg.num_threads = 2;
      cfg.watchdog.deadline_seconds = 0.25;
      Runtime rt(cfg);
      RequestPoller poller(rt, comm);
      double in = -1;
      Event* ev = rt.create_event();
      rt.submit(
          [&, ev] {
            poller.complete_on_event(comm.irecv(&in, sizeof in, 1, 6), ev);
          },
          {Depend::out(&in)}, {.label = "halo-recv", .detach = ev});
      try {
        rt.taskwait();
        FAIL() << "watchdog did not trip";
      } catch (const DeadlineError& e) {
        const std::string report = e.report();
        EXPECT_NE(report.find("pending MPI request"), std::string::npos)
            << report;
        EXPECT_NE(report.find("irecv src=1 tag=6"), std::string::npos)
            << report;
        EXPECT_NE(report.find("halo-recv"), std::string::npos) << report;
        EXPECT_NE(report.find("rank 0:"), std::string::npos) << report;
        EXPECT_NE(report.find("heartbeat"), std::string::npos) << report;
        EXPECT_NE(report.find("injected faults since arming"),
                  std::string::npos)
            << report;
      }
      // Unwedge for teardown: the message does arrive, 30s out — fulfill
      // the event directly instead of waiting for it.
      ev->fulfill();
      rt.taskwait();
    } else {
      double v = 9.0;
      comm.wait(comm.isend(&v, sizeof v, 0, 6));
    }
  }, opts);
}

}  // namespace
