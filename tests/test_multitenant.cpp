// Multi-tenant runtime: N runtimes sharing one WorkerPool. Covers
// exactly-once execution under concurrent submitters, weighted-fair
// stealing, per-tenant failure isolation, per-tenant admission quotas,
// batch-vs-loop submission equivalence (strict-verified), tenant slot
// recycling and the solo-runtime compatibility surface.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/tdg.hpp"
#include "core/worker_pool.hpp"

namespace {

using tdg::BatchItem;
using tdg::Depend;
using tdg::DependList;
using tdg::Runtime;
using tdg::TaskGroupError;
using tdg::UsageError;
using tdg::WorkerPool;

Runtime::Config tenant_cfg(WorkerPool& pool, std::uint32_t weight = 1) {
  Runtime::Config cfg;
  cfg.pool = &pool;
  cfg.tenant.weight = weight;
  return cfg;
}

/// Spin for roughly `us` microseconds (tasks need nonzero width for the
/// fairness test's sampling window).
void spin_us(unsigned us) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  while (std::chrono::steady_clock::now() < until) {
  }
}

TEST(Multitenant, TwoTenantsShareOnePool) {
  WorkerPool::Config pc;
  pc.num_workers = 2;
  pc.max_tenants = 4;
  WorkerPool pool(pc);
  EXPECT_EQ(pool.num_workers(), 2u);
  EXPECT_EQ(pool.tenant_count(), 0u);

  Runtime a(tenant_cfg(pool));
  Runtime b(tenant_cfg(pool));
  EXPECT_EQ(pool.tenant_count(), 2u);
  EXPECT_NE(a.tenant_id(), b.tenant_id());
  EXPECT_EQ(a.num_threads(), 3u);  // producer + 2 shared workers

  std::atomic<int> hits_a{0};
  std::atomic<int> hits_b{0};
  for (int i = 0; i < 500; ++i) {
    a.submit([&] { ++hits_a; }, {});
    b.submit([&] { ++hits_b; }, {});
  }
  a.taskwait();
  b.taskwait();
  EXPECT_EQ(hits_a.load(), 500);
  EXPECT_EQ(hits_b.load(), 500);
  EXPECT_EQ(a.stats().tasks_executed, 500u);
  EXPECT_EQ(b.stats().tasks_executed, 500u);
}

// Thousands of small graphs from 8 submitter threads, each thread owning
// one tenant: every chain must run exactly once and in dependency order
// (the per-tenant checksum is order-sensitive).
TEST(Multitenant, EightSubmittersExactlyOnce) {
  constexpr unsigned kTenants = 8;
  constexpr int kGraphs = 150;
  constexpr int kChain = 4;

  WorkerPool::Config pc;
  pc.num_workers = 3;
  pc.max_tenants = kTenants;
  WorkerPool pool(pc);

  std::vector<std::uint64_t> checksum(kTenants, 0);
  std::vector<std::uint64_t> executed(kTenants, 0);
  std::vector<std::thread> submitters;
  submitters.reserve(kTenants);
  for (unsigned s = 0; s < kTenants; ++s) {
    submitters.emplace_back([&, s] {
      Runtime rt(tenant_cfg(pool));
      std::uint64_t sum = 0;  // serialized by the chain's inout clause
      for (int g = 0; g < kGraphs; ++g) {
        for (int k = 0; k < kChain; ++k) {
          const std::uint64_t term =
              static_cast<std::uint64_t>(s + 1) * 1000003u +
              static_cast<std::uint64_t>(g) * 131u +
              static_cast<std::uint64_t>(k);
          rt.submit([&sum, term] { sum += term; }, {Depend::inout(&sum)});
        }
        if (g % 16 == 15) rt.taskwait();  // interleave waits with discovery
      }
      rt.taskwait();
      checksum[s] = sum;
      executed[s] = rt.stats().tasks_executed;
    });
  }
  for (auto& t : submitters) t.join();

  for (unsigned s = 0; s < kTenants; ++s) {
    std::uint64_t expect = 0;
    for (int g = 0; g < kGraphs; ++g) {
      for (int k = 0; k < kChain; ++k) {
        expect += static_cast<std::uint64_t>(s + 1) * 1000003u +
                  static_cast<std::uint64_t>(g) * 131u +
                  static_cast<std::uint64_t>(k);
      }
    }
    EXPECT_EQ(checksum[s], expect) << "tenant " << s;
    EXPECT_EQ(executed[s],
              static_cast<std::uint64_t>(kGraphs) * kChain)
        << "tenant " << s;
  }
  // Every descriptor went back to the shared arena.
  EXPECT_EQ(pool.tenant_count(), 0u);
}

// Weighted-fair stealing: with both tenants backlogged, pool workers serve
// the weight-4 tenant ~4x as often as the weight-1 tenant. The weighted
// scan governs backlog acquisition from the tenant shards (tasks enabled
// by a worker chain through its local deque instead — that fast path is
// locality, not arbitration), so the workload is independent tasks, and
// the ratio only means anything while BOTH backlogs are live. On a small
// machine the producers may not publish concurrently — one batch can be
// fully drained before the other even lands — so a third tenant first
// plugs every pool worker with a spin-until-released task; the producers
// publish underneath the plugged pool, and the first real serve decision
// the scan makes already sees both backlogs at full depth. The window ends
// in-band: the task completing the kWindow-th execution reads the served
// counts. A test thread sampling them instead can be descheduled on a busy
// host until the heavy backlog has run dry and the light tenant has had
// every worker to itself, which drifts the shares toward 0.5.
//
// Each tenant's tasks form chains of `heavy_chain` / `light_chain` tasks
// (1 = independent); a chain's successors reach a worker by handoff, not
// through the scan, and must be charged to the tenant all the same.
// Returns {heavy served, light served} at the close of the window.
std::pair<std::uint64_t, std::uint64_t> weighted_fair_window(
    int heavy_chain, int light_chain) {
  constexpr int kTasks = 8000;
  constexpr int kWindow = 2000;  // well before either backlog can run dry
  WorkerPool::Config pc;
  pc.num_workers = 3;
  pc.max_tenants = 3;  // heavy, light, and the plug tenant
  WorkerPool pool(pc);

  std::atomic<unsigned> heavy_id{~0u};
  std::atomic<unsigned> light_id{~0u};
  std::atomic<int> ready_producers{0};
  std::atomic<int> plugs_running{0};
  std::atomic<bool> open{false};
  std::atomic<bool> release{false};
  std::atomic<int> executed{0};
  std::atomic<std::uint64_t> heavy_served{0};
  std::atomic<std::uint64_t> light_served{0};
  std::atomic<bool> window_closed{false};

  // Occupy every pool worker so nothing is served until both backlogs
  // are published.
  Runtime plug_rt(tenant_cfg(pool));
  for (unsigned i = 0; i < pool.num_workers(); ++i) {
    plug_rt.submit(
        [&plugs_running, &open] {
          plugs_running.fetch_add(1);
          while (!open.load()) std::this_thread::yield();
        },
        {});
  }
  while (plugs_running.load() != static_cast<int>(pool.num_workers())) {
    std::this_thread::yield();
  }

  auto producer = [&](std::uint32_t weight, int chain,
                      std::atomic<unsigned>& id_out) {
    Runtime rt(tenant_cfg(pool, weight));
    id_out.store(rt.tenant_id());
    std::vector<int> cells(kTasks / chain);
    rt.begin_batch();
    for (int i = 0; i < kTasks; ++i) {
      auto body = [&] {
        if (executed.fetch_add(1) + 1 == kWindow) {
          heavy_served.store(pool.served(heavy_id.load()));
          light_served.store(pool.served(light_id.load()));
          window_closed.store(true);
        }
        spin_us(1);
      };
      if (chain == 1) {
        rt.submit(body, {});
      } else {
        rt.submit(body, {Depend::inout(&cells[i / chain])});
      }
    }
    rt.end_batch();
    ready_producers.fetch_add(1);
    while (!release.load()) std::this_thread::yield();
    rt.taskwait();
  };
  std::thread th(producer, 4u, heavy_chain, std::ref(heavy_id));
  std::thread tl(producer, 1u, light_chain, std::ref(light_id));

  while (ready_producers.load() != 2) std::this_thread::yield();
  // Both 8000-task backlogs are in their shards and no worker has been
  // able to touch them; unplug the pool and watch the scan arbitrate.
  open.store(true);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!window_closed.load() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  release.store(true);
  th.join();
  tl.join();
  plug_rt.taskwait();
  return {heavy_served.load(), light_served.load()};
}

TEST(Multitenant, WeightedFairStealDistribution) {
  const auto [h, l] = weighted_fair_window(1, 1);
  ASSERT_GE(h + l, 2000u) << "pool workers served too little in 30s";
  const double heavy_frac =
      static_cast<double>(h) / static_cast<double>(h + l);
  // Expected 4/5 = 0.8; generous slack for scheduling noise, but well
  // above the 0.5 an unweighted scan would produce.
  EXPECT_GE(heavy_frac, 0.55) << "heavy=" << h << " light=" << l;
  EXPECT_GT(l, 0u);  // weighted, not starved: the light tenant ran too
}

// The light tenant's work is chains of 8, so 7 of every 8 of its tasks
// reach a worker by handoff. Charging only what the scan hands out would
// give it ~8x its weight (heavy share ~4/12 = 0.33); charging every task
// keeps the expected 0.8.
TEST(Multitenant, WeightedFairStealDistributionChargesHandoffs) {
  const auto [h, l] = weighted_fair_window(1, 8);
  ASSERT_GE(h + l, 2000u) << "pool workers served too little in 30s";
  const double heavy_frac =
      static_cast<double>(h) / static_cast<double>(h + l);
  EXPECT_GE(heavy_frac, 0.55) << "heavy=" << h << " light=" << l;
  EXPECT_GT(l, 0u);
}

// served() sums per-worker counts and must be exact, handoffs included,
// with a single tenant attached (where the vruntime charge is skipped).
TEST(Multitenant, ServedIsExactWithOneTenant) {
  WorkerPool::Config pc;
  pc.num_workers = 2;
  pc.max_tenants = 2;
  WorkerPool pool(pc);
  Runtime rt(tenant_cfg(pool));
  const std::thread::id producer = std::this_thread::get_id();
  std::atomic<std::uint64_t> on_workers{0};
  constexpr int kChains = 64;
  constexpr int kLen = 16;
  std::vector<int> cells(kChains);
  for (int i = 0; i < kChains * kLen; ++i) {
    rt.submit(
        [&on_workers, producer] {
          if (std::this_thread::get_id() != producer) ++on_workers;
          spin_us(2);
        },
        {Depend::inout(&cells[i % kChains])});
  }
  // Hold the producer back until the pool has run something: a producer
  // that drained everything itself would leave nothing to count.
  while (on_workers.load() == 0) std::this_thread::yield();
  rt.taskwait();
  EXPECT_EQ(rt.stats().tasks_executed,
            static_cast<std::uint64_t>(kChains) * kLen);
  EXPECT_GT(on_workers.load(), 0u);
  EXPECT_EQ(pool.served(rt.tenant_id()), on_workers.load());
}

// One tenant's failing graph must neither poison a sibling tenant nor
// wedge the pool; the poisoned tenant itself stays usable after taskwait
// throws.
TEST(Multitenant, PoisonedTenantIsIsolated) {
  WorkerPool::Config pc;
  pc.num_workers = 2;
  pc.max_tenants = 2;
  WorkerPool pool(pc);

  Runtime bad(tenant_cfg(pool));
  Runtime good(tenant_cfg(pool));

  int chain = 0;
  bad.submit([] { throw std::runtime_error("tenant failure"); },
             {Depend::out(&chain)});
  bad.submit([&] { chain = 1; }, {Depend::inout(&chain)});  // cancelled

  std::atomic<int> good_hits{0};
  for (int i = 0; i < 200; ++i) {
    good.submit([&] { ++good_hits; }, {});
  }

  EXPECT_THROW(bad.taskwait(), TaskGroupError);
  EXPECT_EQ(chain, 0);  // dependent was cancelled, not run
  good.taskwait();      // sibling unaffected
  EXPECT_EQ(good_hits.load(), 200);

  // The poisoned tenant recovers: a fresh graph runs normally.
  std::atomic<int> retry_hits{0};
  for (int i = 0; i < 50; ++i) {
    bad.submit([&] { ++retry_hits; }, {});
  }
  bad.taskwait();
  EXPECT_EQ(retry_hits.load(), 50);
}

// Batch submission builds the same TDG as a loop of submit() calls: same
// serialized results, same task/edge counts. Runs under TDG_VERIFY=strict
// in the *_strict suite (any determinacy difference throws VerifyError).
TEST(Multitenant, BatchMatchesLoopSubmit) {
  constexpr int kChains = 16;
  constexpr int kLen = 32;
  auto run = [&](bool batched) {
    // Producer-only: with workers racing the submit loop, a predecessor
    // can complete before its successor is discovered and the already-
    // satisfied edge is never materialized, so per-task edge counts
    // would depend on timing. Deferring all execution to taskwait makes
    // both discovery episodes deterministic and directly comparable.
    Runtime rt({.num_threads = 1});
    std::vector<std::uint64_t> cell(kChains, 0);
    auto one_round = [&](int round) {
      if (batched) rt.begin_batch();
      for (int c = 0; c < kChains; ++c) {
        for (int k = 0; k < kLen; ++k) {
          const std::uint64_t term =
              static_cast<std::uint64_t>(round * 7 + c * 13 + k);
          std::uint64_t* p = &cell[static_cast<std::size_t>(c)];
          rt.submit([p, term] { *p = *p * 31 + term; },
                    {Depend::inout(p)});
        }
      }
      if (batched) rt.end_batch();
    };
    one_round(0);
    rt.taskwait();
    one_round(1);
    rt.taskwait();
    auto st = rt.stats();
    EXPECT_EQ(st.tasks_executed,
              static_cast<std::uint64_t>(2 * kChains * kLen));
    return std::make_pair(cell, st.edges_total());
  };
  auto [loop_cells, loop_edges] = run(false);
  auto [batch_cells, batch_edges] = run(true);
  EXPECT_EQ(loop_cells, batch_cells);
  EXPECT_EQ(loop_edges, batch_edges);
}

TEST(Multitenant, SubmitBatchVectorApi) {
  Runtime rt({.num_threads = 2});
  std::uint64_t acc = 0;
  using Body = std::function<void()>;
  std::vector<BatchItem<Body>> items;
  for (int i = 0; i < 64; ++i) {
    BatchItem<Body> it;
    it.fn = [&acc, i] { acc += static_cast<std::uint64_t>(i) * 3 + 1; };
    it.deps = DependList{Depend::inout(&acc)};
    items.push_back(std::move(it));
  }
  rt.submit_batch(items);
  rt.taskwait();
  std::uint64_t expect = 0;
  for (int i = 0; i < 64; ++i) expect += static_cast<std::uint64_t>(i) * 3 + 1;
  EXPECT_EQ(acc, expect);
}

// The throttle config acts as a per-tenant admission quota: a tenant
// drowning in its own backlog self-helps (throttle stalls recorded) while
// a sibling with default quotas sails through untouched.
TEST(Multitenant, AdmissionQuotaPerTenant) {
  WorkerPool::Config pc;
  pc.num_workers = 2;
  pc.max_tenants = 2;
  WorkerPool pool(pc);

  Runtime::Config qcfg = tenant_cfg(pool);
  qcfg.throttle.max_total = 64;  // tiny quota: throttles constantly
  Runtime quota(qcfg);
  Runtime free_rt(tenant_cfg(pool));

  std::atomic<int> qhits{0};
  std::atomic<int> fhits{0};
  // Quota tasks wait at a gate that only a quota task run by this producer
  // thread opens. Submission never runs a task before the quota is
  // exceeded, so until the throttle makes the producer run one the
  // workers cannot drain the backlog: the stall is certain, however fast
  // or slow (sanitizers) the workers are.
  const std::thread::id producer = std::this_thread::get_id();
  std::atomic<bool> gate{false};
  for (int i = 0; i < 2000; ++i) {
    quota.submit(
        [&] {
          if (std::this_thread::get_id() == producer) {
            gate.store(true, std::memory_order_release);
          }
          while (!gate.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
          ++qhits;
        },
        {});
    free_rt.submit([&] { ++fhits; }, {});
  }
  quota.taskwait();
  free_rt.taskwait();
  EXPECT_EQ(qhits.load(), 2000);
  EXPECT_EQ(fhits.load(), 2000);
  if (quota.metrics().enabled()) {
    EXPECT_GT(quota.metrics().snapshot().value("sched.throttle_stalls"), 0u);
    EXPECT_EQ(free_rt.metrics().snapshot().value("sched.throttle_stalls"),
              0u);
  }
}

TEST(Multitenant, TenantSlotsRecycleAndCapacityIsEnforced) {
  WorkerPool::Config pc;
  pc.num_workers = 1;
  pc.max_tenants = 2;
  WorkerPool pool(pc);

  {
    Runtime a(tenant_cfg(pool));
    Runtime b(tenant_cfg(pool));
    EXPECT_EQ(pool.tenant_count(), 2u);
    EXPECT_THROW(Runtime c(tenant_cfg(pool)), UsageError);
    // The failed construction must not have corrupted this thread's
    // producer identity: it is back with b, and both runtimes still
    // accept work.
    EXPECT_EQ(b.metrics_shard(), 0u);
    std::atomic<int> hits{0};
    a.submit([&] { ++hits; }, {});
    b.submit([&] { ++hits; }, {});
    a.taskwait();
    b.taskwait();
    EXPECT_EQ(hits.load(), 2);
  }
  EXPECT_EQ(pool.tenant_count(), 0u);
  // Freed slots are reusable.
  Runtime c(tenant_cfg(pool));
  std::atomic<int> hits{0};
  c.submit([&] { ++hits; }, {});
  c.taskwait();
  EXPECT_EQ(hits.load(), 1);
}

// Solo construction (no Config::pool) must look exactly like the
// pre-pool runtime: private team, tenant id 0, thread count honored.
TEST(Multitenant, SoloRuntimeCompatibilitySurface) {
  Runtime rt({.num_threads = 4});
  EXPECT_EQ(rt.num_threads(), 4u);
  EXPECT_EQ(rt.tenant_id(), 0u);
  EXPECT_EQ(rt.pool().num_workers(), 3u);
  EXPECT_EQ(rt.pool().max_tenants(), 1u);
  std::atomic<int> hits{0};
  for (int i = 0; i < 100; ++i) rt.submit([&] { ++hits; }, {});
  rt.taskwait();
  EXPECT_EQ(hits.load(), 100);
}

// A batch left open is published by taskwait (drain calls end_batch), so
// forgetting end_batch cannot deadlock.
TEST(Multitenant, OpenBatchIsFlushedByTaskwait) {
  Runtime rt({.num_threads = 2});
  std::atomic<int> hits{0};
  rt.begin_batch();
  for (int i = 0; i < 32; ++i) rt.submit([&] { ++hits; }, {});
  rt.taskwait();
  EXPECT_EQ(hits.load(), 32);
}

}  // namespace
