// Microbenchmarks of the runtime's discovery primitives on this host:
// task submission, dependence hashing, duplicate-edge elimination,
// persistent replay, inoutset fan-in. These are the per-task/per-edge
// costs the simulator's DiscoveryCosts model.
#include <benchmark/benchmark.h>

#include <optional>
#include <vector>

#include "core/tdg.hpp"

namespace {

using tdg::Depend;
using tdg::PersistentRegion;
using tdg::Runtime;

Runtime::Config solo() {
  Runtime::Config cfg;
  cfg.num_threads = 1;
  // Keep every task alive so the benchmarks measure pure discovery.
  cfg.throttle.max_total = static_cast<std::size_t>(-1);
  return cfg;
}

void BM_SubmitIndependent(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Runtime rt(solo());
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) rt.submit([] {}, {});
    state.PauseTiming();
    rt.taskwait();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SubmitIndependent)->Arg(1000);

void BM_SubmitChain(benchmark::State& state) {
  int x = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Runtime rt(solo());
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      rt.submit([] {}, {Depend::inout(&x)});
    }
    state.PauseTiming();
    rt.taskwait();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SubmitChain)->Arg(1000);

void BM_SubmitManyDeps(benchmark::State& state) {
  std::vector<double> data(16);
  std::vector<Depend> deps;
  for (auto& d : data) deps.push_back(Depend::inout(&d));
  for (auto _ : state) {
    state.PauseTiming();
    Runtime rt(solo());
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      rt.submit([] {}, std::span<const Depend>(deps));
    }
    state.PauseTiming();
    rt.taskwait();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          static_cast<long>(deps.size()));
}
BENCHMARK(BM_SubmitManyDeps)->Arg(500);

void BM_DuplicateEdgeElimination(benchmark::State& state) {
  // Fig. 3 pattern: dedup hits on every second depend item.
  double x = 0, y = 0;
  const bool dedup = state.range(0) != 0;
  for (auto _ : state) {
    state.PauseTiming();
    Runtime::Config cfg = solo();
    cfg.discovery.dedup_edges = dedup;
    Runtime rt(cfg);
    state.ResumeTiming();
    for (int i = 0; i < 1000; ++i) {
      rt.submit([] {}, {Depend::out(&x), Depend::out(&y)});
      rt.submit([] {}, {Depend::in(&x), Depend::in(&y)});
    }
    state.PauseTiming();
    rt.taskwait();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_DuplicateEdgeElimination)->Arg(0)->Arg(1);

void BM_PersistentReplayIteration(benchmark::State& state) {
  // The replay cost per task: the paper's "single memcpy on firstprivate".
  const int n = static_cast<int>(state.range(0));
  Runtime rt(solo());
  std::vector<int> out(static_cast<std::size_t>(n));
  int chain = 0;
  PersistentRegion region(rt);
  region.begin_iteration();
  for (int i = 0; i < n; ++i) {
    rt.submit([&out, i] { out[static_cast<std::size_t>(i)] = i; },
              {Depend::inout(&chain)});
  }
  region.end_iteration();
  for (auto _ : state) {
    region.begin_iteration();
    for (int i = 0; i < n; ++i) {
      rt.submit([&out, i] { out[static_cast<std::size_t>(i)] = i; },
                {Depend::inout(&chain)});
    }
    region.end_iteration();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PersistentReplayIteration)->Arg(1000);

void BM_InOutSetFanIn(benchmark::State& state) {
  const bool redirect = state.range(0) != 0;
  double x = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Runtime::Config cfg = solo();
    cfg.discovery.inoutset_redirect = redirect;
    Runtime rt(cfg);
    state.ResumeTiming();
    for (int round = 0; round < 20; ++round) {
      for (int i = 0; i < 16; ++i) {
        rt.submit([] {}, {Depend::inoutset(&x)});
      }
      for (int j = 0; j < 16; ++j) {
        rt.submit([] {}, {Depend::in(&x)});
      }
    }
    state.PauseTiming();
    rt.taskwait();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * 20 * 32);
}
BENCHMARK(BM_InOutSetFanIn)->Arg(0)->Arg(1);

void BM_MetricsOverheadDiscovery(benchmark::State& state) {
  // Cost of the unified metrics on the discovery hot path: the same chain
  // workload as BM_SubmitChain, metrics disabled (Arg 0) vs enabled
  // (Arg 1). The acceptance target is < 5% throughput difference.
  int x = 0;
  const bool metrics = state.range(0) != 0;
  for (auto _ : state) {
    state.PauseTiming();
    Runtime::Config cfg = solo();
    cfg.metrics = metrics;
    Runtime rt(cfg);
    state.ResumeTiming();
    for (int i = 0; i < 1000; ++i) {
      rt.submit([] {}, {Depend::inout(&x)});
    }
    state.PauseTiming();
    rt.taskwait();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_MetricsOverheadDiscovery)->Arg(0)->Arg(1);

void BM_MetricsOverheadExecute(benchmark::State& state) {
  // Cost of the default timing on the execution path: one thread spawns
  // independent tasks and runs them in taskwait, metrics disabled (Arg 0)
  // vs enabled (Arg 1, the Config default). BM_MetricsOverheadDiscovery
  // leaves taskwait out of its timing and BM_SpawnExecuteThroughput runs
  // with metrics off, so this is the bench of the default path.
  constexpr int kTasks = 20000;
  long sink = 0;
  const bool metrics = state.range(0) != 0;
  for (auto _ : state) {
    state.PauseTiming();
    Runtime::Config cfg = solo();
    cfg.metrics = metrics;
    std::optional<Runtime> rt(std::in_place, cfg);
    state.ResumeTiming();
    for (int i = 0; i < kTasks; ++i) {
      rt->submit([&sink] { ++sink; }, {});
    }
    rt->taskwait();
    state.PauseTiming();
    rt.reset();  // teardown outside the timed region
    state.ResumeTiming();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kTasks);
}
BENCHMARK(BM_MetricsOverheadExecute)->Arg(0)->Arg(1);

void BM_SpawnExecuteThroughput(benchmark::State& state) {
  // End-to-end spawn+execute rate with a worker team: one producer
  // submitting independent tasks while range(0)-1 workers execute them.
  // This is the deque-contention + per-task-allocation path the
  // low-contention scheduler core targets; items/s is the number the CI
  // smoke test guards against regression.
  const unsigned nthreads = static_cast<unsigned>(state.range(0));
  constexpr int kTasks = 20000;
  std::atomic<long> sink{0};
  for (auto _ : state) {
    state.PauseTiming();
    Runtime::Config cfg;
    cfg.num_threads = nthreads;
    cfg.metrics = false;
    Runtime rt(cfg);
    state.ResumeTiming();
    for (int i = 0; i < kTasks; ++i) {
      rt.submit([&sink] { sink.fetch_add(1, std::memory_order_relaxed); },
                {});
    }
    rt.taskwait();
    state.PauseTiming();
    // Runtime teardown (worker join) outside the timed region.
    state.ResumeTiming();
  }
  benchmark::DoNotOptimize(sink.load());
  state.SetItemsProcessed(state.iterations() * kTasks);
}
BENCHMARK(BM_SpawnExecuteThroughput)->Arg(1)->Arg(2)->Arg(4);

void BM_TaskwaitWindows(benchmark::State& state) {
  // range(1) submit-execute-taskwait windows of range(0) tasks on one
  // thread, each task `inout x[i%64], in x[(i+1)%64]`, the taskwaits
  // inside the timed region. Under TDG_VERIFY every taskwait checks its
  // window, so this prices the checker itself, not only the capture; and
  // since each taskwait checks only its own window, items/s stays flat as
  // the window count (the history) grows.
  const int window = static_cast<int>(state.range(0));
  const int windows = static_cast<int>(state.range(1));
  std::vector<double> x(64, 0.0);
  for (auto _ : state) {
    state.PauseTiming();
    std::optional<Runtime> rt(std::in_place, solo());
    state.ResumeTiming();
    for (int w = 0; w < windows; ++w) {
      for (int i = 0; i < window; ++i) {
        double* a = &x[static_cast<std::size_t>(i % 64)];
        double* b = &x[static_cast<std::size_t>((i + 1) % 64)];
        rt->submit([a, b] { *a += *b; }, {Depend::inout(a), Depend::in(b)});
      }
      rt->taskwait();
    }
    state.PauseTiming();
    rt.reset();
    state.ResumeTiming();
  }
  benchmark::DoNotOptimize(x.data());
  state.SetItemsProcessed(state.iterations() * windows * window);
}
BENCHMARK(BM_TaskwaitWindows)->Args({2000, 8})->Args({2000, 64});

void BM_StealThroughput(benchmark::State& state) {
  // Steal-dominated execution: the producer floods its own deque with
  // root tasks whose bodies are long enough that workers must steal
  // nearly everything. Measures tasks/s through the steal path; the
  // sched.steals counter is exported so before/after runs can compare
  // steal rate, not just completion rate.
  const unsigned nthreads = static_cast<unsigned>(state.range(0));
  constexpr int kTasks = 4000;
  std::atomic<long> sink{0};
  std::uint64_t steals = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Runtime::Config cfg;
    cfg.num_threads = nthreads;
    Runtime rt(cfg);
    state.ResumeTiming();
    for (int i = 0; i < kTasks; ++i) {
      rt.submit(
          [&sink] {
            long acc = 0;
            for (int k = 0; k < 64; ++k) acc += k;
            sink.fetch_add(acc, std::memory_order_relaxed);
          },
          {});
    }
    rt.taskwait();
    state.PauseTiming();
    steals += rt.metrics().snapshot().value("sched.steals");
    state.ResumeTiming();
  }
  benchmark::DoNotOptimize(sink.load());
  state.SetItemsProcessed(state.iterations() * kTasks);
  state.counters["steals_per_iter"] = benchmark::Counter(
      static_cast<double>(steals) /
      static_cast<double>(std::max<std::int64_t>(1, state.iterations())));
}
BENCHMARK(BM_StealThroughput)->Arg(2)->Arg(4);

void BM_DetachFulfill(benchmark::State& state) {
  Runtime rt({.num_threads = 1});
  for (auto _ : state) {
    tdg::Event* ev = rt.create_event();
    rt.submit([] {}, {}, {.detach = ev});
    ev->fulfill();
    rt.taskwait();
  }
}
BENCHMARK(BM_DetachFulfill);

}  // namespace
