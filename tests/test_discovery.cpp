// Discovery data layer (PR 4): the open-addressing address table, slab-
// backed AddrEntry payloads, small_vector history/successor lists, the
// process-global chunk cache, and the metrics the layer exports. These are
// structural tests — exact edge counts under adversarial address patterns,
// spill behaviour, lifetime accounting — complementing the semantic
// ordering tests in test_depend.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <mutex>
#include <new>
#include <vector>

#include "apps/common/emitter.hpp"
#include "apps/lulesh/lulesh.hpp"
#include "core/slab.hpp"
#include "core/tdg.hpp"

namespace {

using tdg::ChunkCache;
using tdg::Depend;
using tdg::Runtime;
using tdg::TaskArena;
using tdg::small_vector;

Runtime::Config solo_config(bool dedup = true, bool redirect = true) {
  Runtime::Config cfg;
  cfg.num_threads = 1;
  cfg.discovery.dedup_edges = dedup;
  cfg.discovery.inoutset_redirect = redirect;
  return cfg;
}

// --- small_vector -----------------------------------------------------------

TEST(SmallVector, StaysInlineUpToN) {
  small_vector<int, 4> v;
  for (int i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_FALSE(v.spilled());
  EXPECT_EQ(v.size(), 4u);
  EXPECT_EQ(v.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(v[i], i);
}

TEST(SmallVector, SpillPreservesElements) {
  small_vector<int, 4> v;
  for (int i = 0; i < 100; ++i) v.push_back(i);
  EXPECT_TRUE(v.spilled());
  EXPECT_EQ(v.size(), 100u);
  EXPECT_GE(v.capacity(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(v[i], i);
}

TEST(SmallVector, ClearKeepsSpilledCapacity) {
  // Access-history lists churn through clear/refill cycles; re-spilling
  // every generation would defeat the layout.
  small_vector<int, 4> v;
  for (int i = 0; i < 20; ++i) v.push_back(i);
  const std::size_t cap = v.capacity();
  v.clear();
  EXPECT_TRUE(v.empty());
  EXPECT_TRUE(v.spilled());
  EXPECT_EQ(v.capacity(), cap);
  for (int i = 0; i < 20; ++i) v.push_back(-i);
  EXPECT_EQ(v.capacity(), cap);
  EXPECT_EQ(v[19], -19);
}

TEST(SmallVector, CopyInlineAndSpilled) {
  small_vector<int, 4> a;
  for (int i = 0; i < 3; ++i) a.push_back(i);
  small_vector<int, 4> b(a);
  EXPECT_FALSE(b.spilled());
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b[2], 2);

  for (int i = 3; i < 40; ++i) a.push_back(i);
  b = a;
  EXPECT_TRUE(b.spilled());
  ASSERT_EQ(b.size(), 40u);
  for (int i = 0; i < 40; ++i) EXPECT_EQ(b[i], i);
  EXPECT_NE(a.data(), b.data()) << "copy must not alias the source buffer";
}

TEST(SmallVector, MoveTransfersHeapAndResetsSource) {
  small_vector<int, 4> a;
  for (int i = 0; i < 40; ++i) a.push_back(i);
  const int* heap = a.data();
  small_vector<int, 4> b(std::move(a));
  EXPECT_EQ(b.data(), heap) << "move must steal the heap buffer";
  EXPECT_EQ(b.size(), 40u);
  EXPECT_TRUE(a.empty());
  EXPECT_FALSE(a.spilled()) << "moved-from must be reusable inline";
  a.push_back(7);
  EXPECT_EQ(a[0], 7);
}

TEST(SmallVector, SwapMixedInlineAndSpilled) {
  small_vector<int, 4> a;
  small_vector<int, 4> b;
  a.push_back(1);
  for (int i = 0; i < 30; ++i) b.push_back(100 + i);
  swap(a, b);
  EXPECT_TRUE(a.spilled());
  EXPECT_EQ(a.size(), 30u);
  EXPECT_EQ(a[29], 129);
  EXPECT_FALSE(b.spilled());
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0], 1);
}

// --- chunk cache ------------------------------------------------------------

TEST(ChunkCacheTest, GiveTakeRoundTrip) {
  ChunkCache::trim();
  constexpr std::size_t kBytes = 1 << 16;
  void* p = ::operator new(kBytes, std::align_val_t{tdg::kCacheLine});
  ChunkCache::give(p, kBytes);
  EXPECT_EQ(ChunkCache::cached(), kBytes);
  EXPECT_EQ(ChunkCache::take(kBytes + 64), nullptr)
      << "size classes must match exactly";
  EXPECT_EQ(ChunkCache::take(kBytes), p);
  EXPECT_EQ(ChunkCache::cached(), 0u);
  ::operator delete(p, std::align_val_t{tdg::kCacheLine});
}

TEST(ChunkCacheTest, ArenaChunksSurviveArenaTeardown) {
  // The point of the cache: a rebuilt arena (new runtime instance) reuses
  // the previous instance's chunk memory instead of re-faulting fresh
  // pages inside the measured region.
  ChunkCache::trim();
  void* first_block = nullptr;
  {
    TaskArena arena(64, 1);
    TaskArena::Source src{};
    first_block = arena.allocate(0, src);
    arena.deallocate(first_block);
  }
  EXPECT_GE(ChunkCache::cached(), 64u * TaskArena::kBlocksPerChunk);
  {
    TaskArena arena(64, 1);
    TaskArena::Source src{};
    void* again = arena.allocate(0, src);
    EXPECT_EQ(again, first_block) << "chunk memory must be recycled";
    arena.deallocate(again);
  }
  ChunkCache::trim();
  EXPECT_EQ(ChunkCache::cached(), 0u);
}

// --- address table under adversarial patterns -------------------------------

TEST(DiscoveryTable, PageStridedAddressesExactEdges) {
  // Page-strided addresses are the classic open-addressing pathology: under
  // a power-of-two mask an identity hash would fold them onto a handful of
  // slots. The table hash must keep probe chains short enough that
  // discovery stays exact and the table grows normally.
  Runtime rt(solo_config());
  constexpr std::size_t kAddrs = 3000;
  constexpr std::size_t kStride = 4096;
  static std::vector<unsigned char> heap(kAddrs * kStride);
  for (std::size_t i = 0; i < kAddrs; ++i) {
    unsigned char* a = heap.data() + i * kStride;
    rt.submit([] {}, {Depend::out(a)});
    rt.submit([] {}, {Depend::in(a)});
  }
  EXPECT_EQ(rt.stats().discovery.edges_created, kAddrs);
  const auto& map = rt.dependency_map();
  EXPECT_EQ(map.tracked_addresses(), kAddrs);
  EXPECT_EQ(map.live_entries(), kAddrs);
  EXPECT_GE(map.rehash_count(), 1u) << "table must have grown";
  // Load-factor invariant: size stays under 3/4 of capacity.
  EXPECT_LE(map.tracked_addresses() * 4, map.table_capacity() * 3);
  rt.taskwait();
}

TEST(DiscoveryTable, TenThousandAddressGenerationsWithRedirect) {
  // 10k independent inoutset generations (2 members + 1 consumer each):
  // optimization (c) gives exactly m+n = 3 edges per address, one redirect
  // node each, and one AddrEntry per address in the arena.
  Runtime rt(solo_config());
  constexpr std::size_t kAddrs = 10000;
  static std::vector<double> x(kAddrs);
  for (std::size_t i = 0; i < kAddrs; ++i) {
    rt.submit([] {}, {Depend::inoutset(&x[i])});
    rt.submit([] {}, {Depend::inoutset(&x[i])});
    rt.submit([] {}, {Depend::in(&x[i])});
  }
  const auto s = rt.stats();
  EXPECT_EQ(s.discovery.edges_created, 3 * kAddrs);
  EXPECT_EQ(s.discovery.redirect_nodes, kAddrs);
  const auto& map = rt.dependency_map();
  EXPECT_EQ(map.tracked_addresses(), kAddrs);
  EXPECT_EQ(map.live_entries(), kAddrs);
  EXPECT_GT(map.arena_bytes(), kAddrs * sizeof(void*));
  rt.taskwait();
}

TEST(DiscoveryTable, GenerationReuseAndDedupAtScale) {
  // Members write a pair of addresses, the consumer reads both: the second
  // address contributes only duplicate (pred, succ) pairs, which
  // optimization (b) must eliminate — per pair: 2 created + 2 duplicate.
  Runtime rt(solo_config(/*dedup=*/true, /*redirect=*/false));
  constexpr std::size_t kPairs = 5000;
  static std::vector<double> a(kPairs), b(kPairs);
  for (std::size_t i = 0; i < kPairs; ++i) {
    rt.submit([] {}, {Depend::inoutset(&a[i]), Depend::inoutset(&b[i])});
    rt.submit([] {}, {Depend::inoutset(&a[i]), Depend::inoutset(&b[i])});
    rt.submit([] {}, {Depend::in(&a[i]), Depend::in(&b[i])});
  }
  const auto s = rt.stats();
  EXPECT_EQ(s.discovery.edges_created, 2 * kPairs);
  EXPECT_EQ(s.discovery.edges_duplicate, 2 * kPairs);
  EXPECT_EQ(s.discovery.redirect_nodes, 0u);
  EXPECT_EQ(rt.dependency_map().tracked_addresses(), 2 * kPairs);
  rt.taskwait();
}

TEST(DiscoveryTable, WideFanoutSpillsSuccessorList) {
  // 64 readers after one writer: the writer's successor list spills far
  // past its inline capacity, and the closing writer must still collect an
  // edge from every reader.
  Runtime rt(solo_config());
  constexpr int kReaders = 64;
  int x = 0;
  std::mutex mu;
  std::vector<int> order;
  auto mark = [&](int id) {
    std::lock_guard<std::mutex> g(mu);
    order.push_back(id);
  };
  rt.submit([&] { mark(0); }, {Depend::out(&x)});
  for (int i = 1; i <= kReaders; ++i) {
    rt.submit([&, i] { mark(i); }, {Depend::in(&x)});
  }
  rt.submit([&] { mark(kReaders + 1); }, {Depend::out(&x)});
  EXPECT_EQ(rt.stats().discovery.edges_created,
            static_cast<std::uint64_t>(2 * kReaders + 1));
  rt.taskwait();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kReaders + 2));
  EXPECT_EQ(order.front(), 0);
  EXPECT_EQ(order.back(), kReaders + 1);
}

// --- probe length per key shape ---------------------------------------------

/// Mean discovery.probe_len over one insert and one later lookup of every
/// key (each pass walks all keys, so the one-entry cache never answers).
double mean_probe_len(const std::vector<const void*>& keys) {
  Runtime::Config cfg = solo_config();
  cfg.metrics = true;
  Runtime rt(cfg);
  for (const void* k : keys) rt.submit([] {}, {Depend::out(k)});
  for (const void* k : keys) rt.submit([] {}, {Depend::in(k)});
  rt.taskwait();
  const tdg::MetricsSnapshot snap = rt.metrics().snapshot();
  const auto* probe = snap.find("discovery.probe_len");
  if (probe == nullptr) {
    ADD_FAILURE() << "discovery.probe_len is not registered";
    return 0.0;
  }
  EXPECT_EQ(probe->value, 2 * keys.size()) << "one sample per lookup";
  return probe->mean();
}

const void* key(std::uintptr_t a) { return reinterpret_cast<const void*>(a); }

TEST(DiscoveryTable, ProbeLengthStaysShortForEveryKeyShape) {
  // Depend addresses are identities, not only 8-byte-aligned pointers: the
  // application emitters pass logical integers (address + 1), LULESH and
  // HPCG stripe their fields 2^20 apart, Cholesky numbers its tiles. Every
  // shape must keep the average lookup within two slots.
  struct Shape {
    const char* name;
    std::vector<const void*> keys;
  };
  std::vector<Shape> shapes;
  {
    Shape s{"consecutive integers", {}};
    for (std::uintptr_t i = 1; i <= 20000; ++i) s.keys.push_back(key(i));
    shapes.push_back(std::move(s));
  }
  {
    Shape s{"2^20-striped fields x 64 blocks", {}};
    for (std::uintptr_t f = 0; f < 21; ++f) {
      for (std::uintptr_t b = 0; b < 64; ++b) {
        s.keys.push_back(key((f << 20) + b + 1));
      }
    }
    shapes.push_back(std::move(s));
  }
  {
    Shape s{"Cholesky tile ids", {}};
    constexpr std::uintptr_t kNt = 16;
    for (std::uintptr_t i = 0; i < kNt; ++i) {
      for (std::uintptr_t j = 0; j < kNt; ++j) {
        s.keys.push_back(key(i * kNt + j + 1));
      }
    }
    shapes.push_back(std::move(s));
  }
  static std::vector<double> doubles(10000);
  {
    Shape s{"aligned sequential doubles", {}};
    for (const double& d : doubles) s.keys.push_back(&d);
    shapes.push_back(std::move(s));
  }
  {
    Shape s{"4 KiB-strided addresses", {}};
    constexpr std::uintptr_t kBase = std::uintptr_t{0x7f12} << 32;
    for (std::uintptr_t i = 0; i < 3000; ++i) {
      s.keys.push_back(key(kBase + i * 4096));
    }
    shapes.push_back(std::move(s));
  }
  for (const Shape& s : shapes) {
    EXPECT_LE(mean_probe_len(s.keys), 2.0) << s.name;
  }
}

TEST(DiscoveryTable, LuleshIterationProbeLengthStaysShort) {
  // One LULESH iteration as the benchmark emits it (2^15 points, 64 tasks
  // per loop) through the real emitter and runtime.
  namespace lulesh = tdg::apps::lulesh;
  lulesh::Config cfg;
  cfg.npoints = 1 << 15;
  cfg.tpl = 64;
  Runtime::Config rc = solo_config();
  rc.metrics = true;
  Runtime rt(rc);
  lulesh::Mesh mesh(cfg.npoints);
  tdg::apps::RuntimeEmitter em(rt, {.persistent = false});
  em.begin_iteration(0);
  emit_iteration(em, mesh, cfg, 0, nullptr);
  em.end_iteration();
  rt.taskwait();
  const tdg::MetricsSnapshot snap = rt.metrics().snapshot();
  const auto* probe = snap.find("discovery.probe_len");
  ASSERT_NE(probe, nullptr);
  EXPECT_GT(probe->value, 1000u);
  EXPECT_LE(probe->mean(), 2.0);
}

// --- lifetime accounting ----------------------------------------------------

TEST(DiscoveryTable, ChurnReleasesEveryEntry) {
  // `data` is declared before the runtime (and all tasks complete at the
  // per-round taskwait), and is per-invocation so --gtest_repeat starts
  // from fresh counts.
  constexpr int kRounds = 50;
  constexpr std::size_t kAddrs = 100;
  std::vector<int> data(kAddrs, 0);
  Runtime rt(solo_config());
  for (int r = 0; r < kRounds; ++r) {
    for (std::size_t i = 0; i < kAddrs; ++i) {
      rt.submit([&, i] { ++data[i]; }, {Depend::inout(&data[i])});
      rt.submit([&, i] { (void)data[i]; }, {Depend::in(&data[i])});
    }
    rt.taskwait();
    rt.clear_dependency_scope();
    ASSERT_EQ(rt.dependency_map().live_entries(), 0u) << "round " << r;
    ASSERT_EQ(rt.dependency_map().tracked_addresses(), 0u) << "round " << r;
  }
  for (std::size_t i = 0; i < kAddrs; ++i) EXPECT_EQ(data[i], kRounds);
}

TEST(DiscoveryTable, LookupCacheInvalidatedByClear) {
  // Regression guard for the one-entry lookup cache: after clear() frees
  // every AddrEntry, a lookup of the very address cached last must miss
  // (a stale hit would dereference freed arena memory and resurrect the
  // released history).
  Runtime rt(solo_config());
  int x = 0;
  rt.submit([&] { x = 1; }, {Depend::out(&x)});
  rt.clear_dependency_scope();
  rt.submit([&] { x = 2; }, {Depend::out(&x)});
  rt.submit([&] { EXPECT_EQ(x, 2); }, {Depend::in(&x)});
  EXPECT_EQ(rt.stats().discovery.edges_created, 1u)
      << "only the fresh out->in edge; no edge from the cleared history";
  rt.taskwait();
}

// --- replay plan ------------------------------------------------------------

TEST(DiscoveryReplay, PlanMatchesRediscoveryResults) {
  // The same stencil sweep, run once through PTSG replay and once with
  // per-iteration rediscovery, must compute identical values — the compiled
  // replay plan is an encoding of the discovered graph, not a new schedule.
  constexpr int kIters = 5;
  constexpr std::size_t kLen = 64;
  auto sweep = [&](Runtime& rt, std::vector<double>& v, int iter) {
    for (std::size_t i = 1; i + 1 < kLen; ++i) {
      rt.submit([&v, i, iter] { v[i] += 0.25 * iter + 0.5 * i; },
                {Depend::in(&v[i - 1]), Depend::inout(&v[i]),
                 Depend::in(&v[i + 1])});
    }
  };

  std::vector<double> replayed(kLen, 1.0);
  {
    Runtime rt(solo_config());
    tdg::PersistentRegion region(rt);
    for (int it = 0; it < kIters; ++it) {
      region.begin_iteration();
      sweep(rt, replayed, it);
      region.end_iteration();
    }
    ASSERT_EQ(region.discovery_seconds().size(),
              static_cast<std::size_t>(kIters));
    // Replay iterations skip discovery entirely: the per-iteration
    // discovery window can only shrink once the plan is compiled.
    EXPECT_GT(region.discovery_seconds()[0], 0.0);
  }

  std::vector<double> rediscovered(kLen, 1.0);
  {
    Runtime rt(solo_config());
    for (int it = 0; it < kIters; ++it) {
      sweep(rt, rediscovered, it);
      rt.taskwait();
      rt.clear_dependency_scope();
    }
  }
  for (std::size_t i = 0; i < kLen; ++i) {
    EXPECT_DOUBLE_EQ(replayed[i], rediscovered[i]) << "index " << i;
  }
}

// --- metrics surface --------------------------------------------------------

TEST(DiscoveryMetrics, TableAndArenaGaugesExported) {
  Runtime::Config cfg = solo_config();
  cfg.metrics = true;
  Runtime rt(cfg);
  constexpr std::size_t kAddrs = 500;
  static std::vector<int> xs(kAddrs);
  for (std::size_t i = 0; i < kAddrs; ++i) {
    rt.submit([] {}, {Depend::out(&xs[i])});
    rt.submit([] {}, {Depend::in(&xs[i])});
  }
  rt.taskwait();
  const tdg::MetricsSnapshot s = rt.metrics().snapshot();
  const auto* entries = s.find("discovery.addr_entries");
  ASSERT_NE(entries, nullptr);
  EXPECT_EQ(entries->level, static_cast<std::int64_t>(kAddrs));
  EXPECT_GE(s.value("discovery.rehash"), 1u);
  const auto* arena = s.find("discovery.arena_bytes");
  ASSERT_NE(arena, nullptr);
  EXPECT_GT(arena->level, 0);
  const auto* probe = s.find("discovery.probe_len");
  ASSERT_NE(probe, nullptr);
  EXPECT_GT(probe->value, 0u) << "every lookup records a probe length";

  rt.clear_dependency_scope();
  const tdg::MetricsSnapshot s2 = rt.metrics().snapshot();
  const auto* entries2 = s2.find("discovery.addr_entries");
  ASSERT_NE(entries2, nullptr);
  EXPECT_EQ(entries2->level, 0)
      << "gauge must return to zero when the history is dropped";
}

}  // namespace
