// Emitter parity: the SAME application graph generator must produce the
// SAME dependency structure through the real runtime (RuntimeEmitter) and
// through the simulator builder (SimEmitter) — this is the guarantee that
// the benchmark harnesses study the graphs the real library would run.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "apps/common/emitter.hpp"
#include "apps/hpcg/hpcg.hpp"
#include "apps/lulesh/lulesh.hpp"
#include "core/tdg.hpp"

// Every global allocation of this test binary is counted, so a test can
// tell how often a steady-state loop reaches the heap.
namespace {
std::atomic<std::uint64_t> g_heap_allocations{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using tdg::Runtime;
using tdg::apps::RuntimeEmitter;
using tdg::apps::SimEmitter;

struct ParityParams {
  bool minimized;  // optimization (a)
  bool dedup;      // (b)
  bool redirect;   // (c)
};

class LuleshEmitterParity : public ::testing::TestWithParam<ParityParams> {};

TEST_P(LuleshEmitterParity, SameStructureBothBackends) {
  const auto p = GetParam();
  namespace lulesh = tdg::apps::lulesh;
  lulesh::Config cfg;
  cfg.npoints = 2048;
  cfg.iterations = 3;
  cfg.tpl = 16;
  cfg.minimized_deps = p.minimized;

  // Simulator side.
  SimEmitter sem({.builder = {.dedup_edges = p.dedup,
                              .inoutset_redirect = p.redirect},
                  .persistent = false});
  {
    lulesh::Mesh mesh(cfg.npoints);
    for (int it = 0; it < cfg.iterations; ++it) {
      sem.begin_iteration(static_cast<std::uint32_t>(it));
      emit_iteration(sem, mesh, cfg, static_cast<std::uint32_t>(it),
                     nullptr);
      sem.end_iteration();
    }
  }
  auto g = sem.take();

  // Real runtime side: single-threaded with no execution until taskwait,
  // so no pruning interferes with the comparison.
  Runtime::Config rc;
  rc.num_threads = 1;
  rc.discovery.dedup_edges = p.dedup;
  rc.discovery.inoutset_redirect = p.redirect;
  Runtime rt(rc);
  {
    RuntimeEmitter rem(rt, {.persistent = false});
    lulesh::Mesh mesh(cfg.npoints);
    for (int it = 0; it < cfg.iterations; ++it) {
      rem.begin_iteration(static_cast<std::uint32_t>(it));
      emit_iteration(rem, mesh, cfg, static_cast<std::uint32_t>(it),
                     nullptr);
      rem.end_iteration();
    }
    rt.taskwait();  // bodies reference `mesh`: drain before it dies
  }
  const auto s = rt.stats();
  EXPECT_EQ(s.discovery.edges_pruned, 0u) << "precondition: no pruning";
  EXPECT_EQ(g.tasks.size(),
            static_cast<std::size_t>(s.tasks_created + s.internal_nodes));
  EXPECT_EQ(g.structural_edges(), s.discovery.edges_created);
  EXPECT_EQ(g.discovery.edges_duplicate, s.discovery.edges_duplicate);
  EXPECT_EQ(g.discovery.redirect_nodes, s.discovery.redirect_nodes);
  rt.taskwait();
}

INSTANTIATE_TEST_SUITE_P(
    Options, LuleshEmitterParity,
    ::testing::Values(ParityParams{true, true, true},
                      ParityParams{false, true, true},
                      ParityParams{true, false, true},
                      ParityParams{true, true, false},
                      ParityParams{false, false, false}));

TEST(EmitterParity, HpcgGraphsMatch) {
  namespace hpcg = tdg::apps::hpcg;
  hpcg::Config cfg;
  cfg.nx = 6;
  cfg.ny = 6;
  cfg.nz_global = 6;
  cfg.cg_iterations = 4;
  cfg.tpl = 6;
  cfg.nspmv = 3;
  hpcg::Problem prob = hpcg::build_problem(cfg);

  SimEmitter sem({.builder = {}, .persistent = false});
  {
    hpcg::CgState st(prob, cfg.tpl);
    emit_init(sem, prob, st, cfg, nullptr);
    for (int it = 0; it < cfg.cg_iterations; ++it) {
      sem.begin_iteration(static_cast<std::uint32_t>(it));
      emit_iteration(sem, prob, st, cfg, static_cast<std::uint32_t>(it),
                     nullptr);
      sem.end_iteration();
    }
  }
  auto g = sem.take();

  Runtime rt({.num_threads = 1});
  {
    RuntimeEmitter rem(rt, {.persistent = false});
    hpcg::CgState st(prob, cfg.tpl);
    emit_init(rem, prob, st, cfg, nullptr);
    for (int it = 0; it < cfg.cg_iterations; ++it) {
      rem.begin_iteration(static_cast<std::uint32_t>(it));
      emit_iteration(rem, prob, st, cfg, static_cast<std::uint32_t>(it),
                     nullptr);
      rem.end_iteration();
    }
    rt.taskwait();  // bodies reference `st`: drain before it dies
  }
  const auto s = rt.stats();
  EXPECT_EQ(g.tasks.size(),
            static_cast<std::size_t>(s.tasks_created + s.internal_nodes));
  EXPECT_EQ(g.structural_edges(),
            s.discovery.edges_created + s.discovery.edges_pruned);
  rt.taskwait();
}

TEST(Emitter, SimEmitterPersistentCapturesOnlyFirstIteration) {
  namespace lulesh = tdg::apps::lulesh;
  lulesh::Config cfg;
  cfg.npoints = 512;
  cfg.iterations = 5;
  cfg.tpl = 4;
  SimEmitter em({.builder = {}, .persistent = true});
  lulesh::Mesh mesh(cfg.npoints);
  int emitted_iterations = 0;
  for (int it = 0; it < cfg.iterations; ++it) {
    if (em.begin_iteration(static_cast<std::uint32_t>(it))) {
      emit_iteration(em, mesh, cfg, static_cast<std::uint32_t>(it), nullptr);
      ++emitted_iterations;
    }
    em.end_iteration();
  }
  EXPECT_EQ(emitted_iterations, 1);
  auto g = em.take();
  // One iteration's tasks only: 10 loops x tpl + dt + 2 ghosts(+redirects).
  EXPECT_GE(g.tasks.size(), 10u * 4 + 3);
  EXPECT_LT(g.tasks.size(), 2u * (10u * 4 + 3));
}

TEST(Emitter, TaskwaitAroundCommExecutesCorrectly) {
  // The Section 4.1 ablation path on the real runtime: taskwait brackets
  // must not deadlock or change results.
  namespace lulesh = tdg::apps::lulesh;
  constexpr std::int64_t kPerRank = 128;
  constexpr int kRanks = 2;
  lulesh::Config cfg;
  cfg.npoints = kPerRank;
  cfg.iterations = 4;
  cfg.tpl = 4;
  cfg.distributed = true;

  lulesh::Mesh ref(kPerRank * kRanks);
  lulesh::Config rcfg = cfg;
  rcfg.npoints = kPerRank * kRanks;
  rcfg.distributed = false;
  run_reference(ref, rcfg);

  std::vector<int> bad(kRanks, 0);
  tdg::mpi::Universe::run(kRanks, [&](tdg::mpi::Comm& comm) {
    Runtime rt({.num_threads = 2});
    tdg::mpi::RequestPoller poller(rt);
    lulesh::Mesh m(kPerRank);
    const std::int64_t offset = kPerRank * comm.rank();
    m.init_partition(kPerRank * kRanks, offset);
    lulesh::Halo halo;
    halo.left = comm.rank() > 0 ? comm.rank() - 1 : -1;
    halo.right = comm.rank() + 1 < comm.size() ? comm.rank() + 1 : -1;
    RuntimeEmitter em(rt, comm, poller,
                      {.persistent = false, .taskwait_around_comm = true});
    for (int it = 0; it < cfg.iterations; ++it) {
      em.begin_iteration(static_cast<std::uint32_t>(it));
      emit_iteration(em, m, cfg, static_cast<std::uint32_t>(it), &halo);
      em.end_iteration();
    }
    rt.taskwait();
    for (std::int64_t i = 1; i <= kPerRank; ++i) {
      if (m.x[static_cast<std::size_t>(i)] !=
          ref.x[static_cast<std::size_t>(offset + i)]) {
        ++bad[static_cast<std::size_t>(comm.rank())];
      }
    }
  });
  for (int r = 0; r < kRanks; ++r) EXPECT_EQ(bad[static_cast<std::size_t>(r)], 0);
}

TEST(Emitter, PersistentReplayCreatesNoDetachEvents) {
  // A replayed submission ignores its TaskOpts and reuses the detach event
  // of the discovery iteration, so communication tasks must not create a
  // new event per replay: events live as long as the runtime.
  namespace lulesh = tdg::apps::lulesh;
  constexpr std::int64_t kPerRank = 128;
  constexpr int kRanks = 2;
  constexpr int kIterations = 10;
  lulesh::Config cfg;
  cfg.npoints = kPerRank;
  cfg.iterations = kIterations;
  cfg.tpl = 4;
  cfg.distributed = true;

  lulesh::Mesh ref(kPerRank * kRanks);
  lulesh::Config rcfg = cfg;
  rcfg.npoints = kPerRank * kRanks;
  rcfg.distributed = false;
  run_reference(ref, rcfg);

  std::vector<std::size_t> discovered(kRanks, 0);
  std::vector<std::size_t> replayed(kRanks, 0);
  std::vector<int> bad(kRanks, 0);
  tdg::mpi::Universe::run(kRanks, [&](tdg::mpi::Comm& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    Runtime rt({.num_threads = 2});
    tdg::mpi::RequestPoller poller(rt);
    lulesh::Mesh m(kPerRank);
    const std::int64_t offset = kPerRank * comm.rank();
    m.init_partition(kPerRank * kRanks, offset);
    lulesh::Halo halo;
    halo.left = comm.rank() > 0 ? comm.rank() - 1 : -1;
    halo.right = comm.rank() + 1 < comm.size() ? comm.rank() + 1 : -1;
    RuntimeEmitter em(rt, comm, poller, {.persistent = true});
    for (int it = 0; it < kIterations; ++it) {
      em.begin_iteration(static_cast<std::uint32_t>(it));
      emit_iteration(em, m, cfg, static_cast<std::uint32_t>(it), &halo);
      em.end_iteration();
      if (it == 0) discovered[r] = rt.event_count();
    }
    replayed[r] = rt.event_count();
    for (std::int64_t i = 1; i <= kPerRank; ++i) {
      if (m.x[static_cast<std::size_t>(i)] !=
          ref.x[static_cast<std::size_t>(offset + i)]) {
        ++bad[r];
      }
    }
  });
  for (std::size_t r = 0; r < kRanks; ++r) {
    EXPECT_GT(discovered[r], 0u) << "rank " << r;
    EXPECT_EQ(replayed[r], discovered[r]) << "rank " << r;
    EXPECT_EQ(bad[r], 0) << "rank " << r;
  }
}

TEST(Emitter, SteadyStateLuleshSubmitMakesNoHeapAllocation) {
  // Emitting, discovering and running a LULESH iteration through the real
  // runtime must not go through the global allocator per compute task: no
  // heap-stored body and no growing depend list. Warm-up iterations fill
  // the slab and the history table first. A throttle of zero pending
  // tasks runs each task before the next one is submitted, so every edge
  // is pruned and no successor list is materialized: those lists spill
  // on wide fan-outs, a cost of graph shape that depends on timing, not
  // of emission.
  namespace lulesh = tdg::apps::lulesh;
  for (bool minimized : {true, false}) {
    SCOPED_TRACE(testing::Message() << "minimized " << minimized);
    lulesh::Config cfg;
    cfg.npoints = 4096;
    cfg.tpl = 64;
    cfg.minimized_deps = minimized;
    constexpr int kWarmup = 3;
    constexpr int kMeasured = 10;
    Runtime::Config rc;
    rc.num_threads = 1;
    rc.throttle.max_total = 0;
    Runtime rt(rc);
    lulesh::Mesh mesh(cfg.npoints);
    RuntimeEmitter em(rt, {.persistent = false});
    auto iterate = [&](int it) {
      em.begin_iteration(static_cast<std::uint32_t>(it));
      emit_iteration(em, mesh, cfg, static_cast<std::uint32_t>(it), nullptr);
      em.end_iteration();
    };
    for (int it = 0; it < kWarmup; ++it) iterate(it);
    rt.taskwait();
    const std::uint64_t tasks0 = rt.stats().tasks_created;
    const std::uint64_t allocs0 = g_heap_allocations.load();
    for (int it = kWarmup; it < kWarmup + kMeasured; ++it) iterate(it);
    rt.taskwait();
    const std::uint64_t allocs = g_heap_allocations.load() - allocs0;
    const auto s = rt.stats();
    const std::uint64_t tasks = s.tasks_created - tasks0;
    ASSERT_EQ(tasks, kMeasured * (10u * static_cast<unsigned>(cfg.tpl) + 3u));
    ASSERT_EQ(s.discovery.edges_created, 0u) << "precondition: all pruned";
    EXPECT_LT(static_cast<double>(allocs) / static_cast<double>(tasks), 0.05)
        << allocs << " allocations for " << tasks << " compute tasks";
  }
}

}  // namespace
