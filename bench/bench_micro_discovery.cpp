// Microbenchmarks of the discovery data layer in isolation: per-address
// access-history probes (the open-addressing table), edge creation across
// in/out/inout/inoutset mixes, and address-set sizes from cache-resident to
// spilling. Reported rates:
//   items_per_second = edges/s for the *Mixed / *InOutSet /
//                      *LogicalAddresses benches
//   items_per_second = addresses/s for the *AddressInsert bench
//   items_per_second = submits/s for BM_DiscoveryMixedThreads (the producer
//                      against 3 running workers)
//
// BM_DiscoveryMixed/10000/1 (10k addresses, dedup on, 1 thread) is the
// number scripts/ci_bench_smoke.sh gates against scripts/bench_baseline.txt
// (the `discovery` line); re-record deliberately after a known perf change.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "core/tdg.hpp"

namespace {

using tdg::Depend;
using tdg::Runtime;

Runtime::Config solo(bool dedup = true, bool redirect = true) {
  Runtime::Config cfg;
  cfg.num_threads = 1;
  // Keep every task alive so the benchmark measures pure discovery, and
  // drop the metrics branch from the hot path (the overhead bench in
  // bench_micro_runtime guards that separately).
  cfg.throttle.max_total = static_cast<std::size_t>(-1);
  cfg.metrics = false;
  cfg.discovery.dedup_edges = dedup;
  cfg.discovery.inoutset_redirect = redirect;
  return cfg;
}

/// Edge throughput on a writer/readers/read-modify-write mix, the common
/// shape of mesh codes (one producer, a few consumers, then an update).
/// range(0) = address-set size (256 stays cache-resident, 10k+ spills),
/// range(1) = optimization (b) duplicate-edge elimination on/off.
void BM_DiscoveryMixed(benchmark::State& state) {
  const int naddrs = static_cast<int>(state.range(0));
  const bool dedup = state.range(1) != 0;
  std::vector<double> addrs(static_cast<std::size_t>(naddrs));
  std::uint64_t edges = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Runtime rt(solo(dedup));
    state.ResumeTiming();
    for (int round = 0; round < 2; ++round) {
      for (int i = 0; i < naddrs; ++i) {
        double* a = &addrs[static_cast<std::size_t>(i)];
        rt.submit([] {}, {Depend::out(a)});
        rt.submit([] {}, {Depend::in(a)});
        rt.submit([] {}, {Depend::in(a)});
        rt.submit([] {}, {Depend::inout(a)});
      }
    }
    state.PauseTiming();
    edges += rt.stats().discovery.edges_created;
    rt.taskwait();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(edges));
  state.counters["addresses"] = static_cast<double>(naddrs);
}
BENCHMARK(BM_DiscoveryMixed)
    ->Args({256, 1})
    ->Args({10000, 1})
    ->Args({10000, 0})
    ->Args({100000, 1});

/// BM_DiscoveryMixed on the logical addresses the application emitters
/// pass instead of pointers. range(0) = number of keys; range(1) = 0 for
/// consecutive integers (the taskbench and Cholesky shape), 1 for fields
/// striped 2^20 apart with 64 blocks each (the LULESH and HPCG shape).
/// Every key is the logical address + 1, as RuntimeEmitter passes it; none
/// is dereferenced. items_per_second = edges/s.
void BM_DiscoveryLogicalAddresses(benchmark::State& state) {
  const auto naddrs = static_cast<std::uintptr_t>(state.range(0));
  const bool striped = state.range(1) != 0;
  std::vector<const void*> keys;
  for (std::uintptr_t i = 0; i < naddrs; ++i) {
    const std::uintptr_t a = striped ? ((i / 64) << 20) + i % 64 : i;
    keys.push_back(reinterpret_cast<const void*>(a + 1));
  }
  std::uint64_t edges = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Runtime rt(solo());
    state.ResumeTiming();
    for (int round = 0; round < 2; ++round) {
      for (const void* a : keys) {
        rt.submit([] {}, {Depend::out(a)});
        rt.submit([] {}, {Depend::in(a)});
        rt.submit([] {}, {Depend::in(a)});
        rt.submit([] {}, {Depend::inout(a)});
      }
    }
    state.PauseTiming();
    edges += rt.stats().discovery.edges_created;
    rt.taskwait();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(edges));
  state.counters["addresses"] = static_cast<double>(naddrs);
}
BENCHMARK(BM_DiscoveryLogicalAddresses)
    ->ArgNames({"keys", "striped"})
    ->Args({10000, 0})
    ->Args({10000, 1});

/// The producer's submit cost with a team running the bodies: the mix of
/// BM_DiscoveryMixed on a 4-thread runtime, whose 3 pool workers execute
/// and free tasks while the producer submits, so predecessor lines, slab
/// blocks and counters move between cores as they do in an application.
/// items_per_second = submits/s of the submission loop (wall time; the
/// taskwait after it is not timed). The runtime lives across iterations
/// so its workers are warm, and each iteration starts from a cleared
/// dependency scope.
void BM_DiscoveryMixedThreads(benchmark::State& state) {
  const int naddrs = static_cast<int>(state.range(0));
  std::vector<double> addrs(static_cast<std::size_t>(naddrs));
  Runtime::Config cfg = solo();
  cfg.num_threads = 4;
  Runtime rt(cfg);
  std::int64_t submits = 0;
  for (auto _ : state) {
    for (int round = 0; round < 2; ++round) {
      for (int i = 0; i < naddrs; ++i) {
        double* a = &addrs[static_cast<std::size_t>(i)];
        rt.submit([] {}, {Depend::out(a)});
        rt.submit([] {}, {Depend::in(a)});
        rt.submit([] {}, {Depend::in(a)});
        rt.submit([] {}, {Depend::inout(a)});
      }
    }
    submits += 8 * static_cast<std::int64_t>(naddrs);
    state.PauseTiming();
    rt.taskwait();
    rt.clear_dependency_scope();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(submits);
  state.counters["addresses"] = static_cast<double>(naddrs);
}
BENCHMARK(BM_DiscoveryMixedThreads)->Arg(256)->Arg(10000)->UseRealTime();

/// inoutset generation fan-in/fan-out: 4 members + 2 consumers per address
/// per round, with optimization (c) redirect nodes on (m+n edges) or off
/// (m*n edges). Exercises generation open/close and redirect lifetime.
void BM_DiscoveryInOutSet(benchmark::State& state) {
  const int naddrs = static_cast<int>(state.range(0));
  const bool redirect = state.range(1) != 0;
  std::vector<double> addrs(static_cast<std::size_t>(naddrs));
  std::uint64_t edges = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Runtime rt(solo(/*dedup=*/true, redirect));
    state.ResumeTiming();
    for (int round = 0; round < 2; ++round) {
      for (int i = 0; i < naddrs; ++i) {
        double* a = &addrs[static_cast<std::size_t>(i)];
        for (int m = 0; m < 4; ++m) {
          rt.submit([] {}, {Depend::inoutset(a)});
        }
        rt.submit([] {}, {Depend::in(a)});
        rt.submit([] {}, {Depend::in(a)});
      }
    }
    state.PauseTiming();
    edges += rt.stats().discovery.edges_created;
    rt.taskwait();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(edges));
  state.counters["addresses"] = static_cast<double>(naddrs);
}
BENCHMARK(BM_DiscoveryInOutSet)
    ->Args({256, 1})
    ->Args({256, 0})
    ->Args({10000, 1})
    ->Args({10000, 0});

/// Pure table-insert throughput: every task writes one fresh address, so
/// each depend item is one probe + one new access-history entry and no
/// edges. items/s = addresses/s, including table growth/rehash cost.
void BM_DiscoveryAddressInsert(benchmark::State& state) {
  const int naddrs = static_cast<int>(state.range(0));
  std::vector<double> addrs(static_cast<std::size_t>(naddrs));
  std::int64_t inserted = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Runtime rt(solo());
    state.ResumeTiming();
    for (int i = 0; i < naddrs; ++i) {
      rt.submit([] {}, {Depend::out(&addrs[static_cast<std::size_t>(i)])});
    }
    inserted += naddrs;
    state.PauseTiming();
    rt.taskwait();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(inserted);
}
BENCHMARK(BM_DiscoveryAddressInsert)->Arg(10000)->Arg(100000);

/// Collision-heavy pointer pattern: addresses at a constant large stride,
/// the worst case for low-entropy pointer hashing (all keys share their
/// low bits). A table whose hash only mixes low bits collapses to a probe
/// chain here; the table hash must keep this within ~2x of the dense case.
void BM_DiscoveryStridedAddresses(benchmark::State& state) {
  constexpr int kAddrs = 4096;
  constexpr std::size_t kStride = 4096;  // page-stride bases
  std::vector<unsigned char> pool(kAddrs * kStride);
  std::int64_t inserted = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Runtime rt(solo());
    state.ResumeTiming();
    for (int i = 0; i < kAddrs; ++i) {
      rt.submit([] {}, {Depend::out(&pool[static_cast<std::size_t>(i) *
                                         kStride])});
    }
    inserted += kAddrs;
    state.PauseTiming();
    rt.taskwait();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(inserted);
}
BENCHMARK(BM_DiscoveryStridedAddresses);

}  // namespace
