// The shared dependence rules against an independent reference, on both
// engines: the runtime's DependencyMap and the simulator's SimGraphBuilder.
//  - HistoryBound: an address alternating inoutset generations and reads
//    keeps a bounded history, so discovery stays linear in the task count.
//  - DependClosure: on seeded random clause programs, the transitive
//    closure of the discovered graph equals the closure of a naive
//    per-address conflict model, in both directions (no missing ordering,
//    no extra one).
//  - ReplayClosure: the same programs replayed under a PersistentRegion run
//    in the reference model's order every iteration, a seeded failure
//    cancels exactly the failed task's reference descendants, and the
//    iterations after it run every body again.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/tdg.hpp"
#include "sim/graph.hpp"

namespace {

using tdg::Depend;
using tdg::DependType;
using tdg::DiscoveryOptions;
using tdg::DiscoveryStats;
using tdg::PersistentRegion;
using tdg::Runtime;
using tdg::sim::SimDep;
using tdg::sim::SimGraph;
using tdg::sim::SimGraphBuilder;
using tdg::sim::SimTaskAttrs;

std::uint64_t attempts(const DiscoveryStats& d) {
  return d.edges_created + d.edges_pruned + d.edges_duplicate;
}

template <class Entry>
std::size_t held(const Entry& e) {
  return e.last_mod.size() + e.gen_base.size() + e.readers.size();
}

// --- bounded history ---------------------------------------------------------

constexpr int kMembers = 64;

struct RoundsResult {
  std::uint64_t attempts = 0;
  std::size_t max_held = 0;  ///< most nodes the address's lists held
};

// R rounds of {kMembers x inoutset(s), 1 x in(s)}: the LULESH dt summary
// (SoundSpeed members, then the CalcDt reader), iteration after iteration.
template <class SubmitMember, class SubmitReader, class Held>
RoundsResult run_rounds(int rounds, SubmitMember member, SubmitReader reader,
                        Held held_now) {
  RoundsResult r;
  for (int i = 0; i < rounds; ++i) {
    for (int m = 0; m < kMembers; ++m) {
      member();
      r.max_held = std::max(r.max_held, held_now());
    }
    reader();
    r.max_held = std::max(r.max_held, held_now());
  }
  return r;
}

RoundsResult sim_rounds(int rounds) {
  constexpr std::uint64_t kAddr = 1;
  SimGraphBuilder b;
  RoundsResult r = run_rounds(
      rounds, [&] { b.task(SimTaskAttrs{}, {SimDep::inoutset(kAddr)}); },
      [&] { b.task(SimTaskAttrs{}, {SimDep::in(kAddr)}); },
      [&] { return held(*b.history(kAddr)); });
  r.attempts = attempts(b.take().discovery);
  return r;
}

RoundsResult runtime_rounds(int rounds) {
  // One thread and no taskwait while submitting: every edge is created.
  Runtime rt({.num_threads = 1});
  static double s = 0;
  RoundsResult r = run_rounds(
      rounds, [&] { rt.submit([] {}, {Depend::inoutset(&s)}); },
      [&] { rt.submit([] {}, {Depend::in(&s)}); },
      [&] { return held(*rt.dependency_map().history(&s)); });
  r.attempts = attempts(rt.stats().discovery);
  rt.taskwait();
  return r;
}

void expect_bounded(RoundsResult (*run)(int)) {
  const RoundsResult r100 = run(100);
  const RoundsResult r200 = run(200);
  // Linear: doubling the rounds doubles the edge attempts (a history that
  // keeps every member and reader grows them quadratically).
  EXPECT_LE(static_cast<double>(r200.attempts),
            2.1 * static_cast<double>(r100.attempts))
      << r100.attempts << " attempts at 100 rounds, " << r200.attempts
      << " at 200";
  // At most this round's members, the previous round's reader as their
  // base, and this round's reader.
  EXPECT_LE(r200.max_held, static_cast<std::size_t>(kMembers) + 2);
}

TEST(HistoryBound, InOutSetRoundsStayLinearOnSimGraph) {
  expect_bounded(&sim_rounds);
}

TEST(HistoryBound, InOutSetRoundsStayLinearOnRuntime) {
  expect_bounded(&runtime_rounds);
}

// --- differential closure ----------------------------------------------------

struct Item {
  int addr;
  DependType type;
};
using Clause = std::vector<Item>;

/// A seeded clause program over 1-4 addresses. A quarter of the clauses
/// name their first address twice ({inoutset, in}, {in, inoutset}, ...).
std::vector<Clause> random_program(std::uint64_t seed, int ntasks) {
  std::mt19937_64 rng(seed);
  auto pick = [&](int n) { return static_cast<int>(rng() % n); };
  // Weighted toward in and inoutset, which open and close generations.
  const DependType types[] = {DependType::In,       DependType::In,
                              DependType::InOutSet, DependType::InOutSet,
                              DependType::Out,      DependType::InOut};
  const int naddrs = 1 + pick(4);
  std::vector<Clause> program(static_cast<std::size_t>(ntasks));
  for (Clause& c : program) {
    const int nitems = 1 + pick(2);
    for (int i = 0; i < nitems; ++i) {
      c.push_back(Item{pick(naddrs), types[pick(6)]});
    }
    if (pick(4) == 0) c.push_back(Item{c[0].addr, types[pick(6)]});
  }
  return program;
}

/// Reachability over a node set: reach[u] has bit v when a path u -> v of
/// one or more edges exists.
class Reach {
 public:
  explicit Reach(std::size_t n) : n_(n), succ_(n), bits_(n) {}
  void edge(std::size_t u, std::size_t v) { succ_[u].push_back(v); }
  void close() {
    const std::size_t words = (n_ + 63) / 64;
    for (std::size_t u = 0; u < n_; ++u) {
      std::vector<std::uint64_t>& seen = bits_[u];
      seen.assign(words, 0);
      std::vector<std::size_t> stack(succ_[u].begin(), succ_[u].end());
      while (!stack.empty()) {
        const std::size_t v = stack.back();
        stack.pop_back();
        if (test(seen, v)) continue;
        seen[v / 64] |= std::uint64_t{1} << (v % 64);
        stack.insert(stack.end(), succ_[v].begin(), succ_[v].end());
      }
    }
  }
  bool has_path(std::size_t u, std::size_t v) const {
    return test(bits_[u], v);
  }

 private:
  static bool test(const std::vector<std::uint64_t>& s, std::size_t v) {
    return (s[v / 64] >> (v % 64)) & 1;
  }
  std::size_t n_;
  std::vector<std::vector<std::size_t>> succ_;
  std::vector<std::vector<std::uint64_t>> bits_;
};

/// The reference model, after romp's TaskDependenceGraph: a per-address
/// map of every access so far, and an edge from each earlier access that
/// conflicts with a new one (anything but two reads or two inoutset
/// members). Quadratic and obviously OpenMP 5.1's ordering.
Reach reference_reach(const std::vector<Clause>& program) {
  std::unordered_map<int, std::vector<std::pair<std::size_t, DependType>>>
      accesses;
  Reach reach(program.size());
  for (std::size_t t = 0; t < program.size(); ++t) {
    for (const Item& it : program[t]) {
      for (auto [prev, type] : accesses[it.addr]) {
        const bool both_in =
            type == DependType::In && it.type == DependType::In;
        const bool both_set =
            type == DependType::InOutSet && it.type == DependType::InOutSet;
        if (prev != t && !both_in && !both_set) reach.edge(prev, t);
      }
    }
    for (const Item& it : program[t]) accesses[it.addr].push_back({t, it.type});
  }
  reach.close();
  return reach;
}

/// Closure of the SimGraph, redirect nodes included as path vertices.
/// Returns the reach and each program task's node index.
Reach sim_reach(const std::vector<Clause>& program, DiscoveryOptions opts,
                std::vector<std::size_t>& node_of) {
  SimGraphBuilder b(opts);
  for (const Clause& c : program) {
    std::vector<SimDep> deps;
    for (const Item& it : c) {
      deps.push_back(SimDep{static_cast<std::uint64_t>(it.addr) + 1, it.type});
    }
    node_of.push_back(b.task(SimTaskAttrs{}, deps));
  }
  const SimGraph g = b.take();
  Reach reach(g.tasks.size());
  for (std::size_t v = 0; v < g.tasks.size(); ++v) {
    for (std::uint32_t u : g.tasks[v].preds) reach.edge(u, v);
  }
  reach.close();
  return reach;
}

/// Closure of the runtime's captured edge stream (trace on), which keeps
/// pruned pairs too.
Reach runtime_reach(const std::vector<Clause>& program, DiscoveryOptions opts,
                    std::vector<std::size_t>& node_of) {
  Runtime::Config cfg;
  cfg.num_threads = 1;
  cfg.trace = true;
  cfg.discovery = opts;
  Runtime rt(cfg);
  static double pool[4];
  std::unordered_map<std::uint64_t, std::size_t> index;
  auto node = [&](std::uint64_t id) {
    return index.emplace(id, index.size()).first->second;
  };
  for (const Clause& c : program) {
    std::vector<Depend> deps;
    for (const Item& it : c) deps.push_back(Depend{&pool[it.addr], it.type});
    node_of.push_back(node(rt.submit([] {}, std::span<const Depend>(deps))));
  }
  rt.taskwait();
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (const auto& e : rt.profiler().edges()) {
    edges.emplace_back(node(e.pred), node(e.succ));
  }
  Reach reach(index.size());
  for (auto [u, v] : edges) reach.edge(u, v);
  reach.close();
  return reach;
}

/// First task pair whose ordering differs between the two closures, as
/// "a -> b" with the side that has it; empty when they agree.
std::string first_difference(const Reach& ref, const Reach& got,
                             const std::vector<std::size_t>& node_of) {
  const std::size_t n = node_of.size();
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      const bool want = ref.has_path(a, b);
      if (want == got.has_path(node_of[a], node_of[b])) continue;
      return std::to_string(a) + " -> " + std::to_string(b) +
             (want ? " missing" : " extra");
    }
  }
  return {};
}

struct ClosureParams {
  bool dedup;
  bool redirect;
};

class DependClosure : public ::testing::TestWithParam<ClosureParams> {};

TEST_P(DependClosure, RandomProgramsMatchReferenceOnBothEngines) {
  const DiscoveryOptions opts{.dedup_edges = GetParam().dedup,
                              .inoutset_redirect = GetParam().redirect};
  constexpr int kPrograms = 150;
  constexpr int kTasks = 80;
  for (std::uint64_t seed = 1; seed <= kPrograms; ++seed) {
    const std::vector<Clause> program = random_program(seed, kTasks);
    const Reach ref = reference_reach(program);
    std::vector<std::size_t> sim_nodes;
    const Reach sim = sim_reach(program, opts, sim_nodes);
    EXPECT_EQ(first_difference(ref, sim, sim_nodes), "")
        << "SimGraph, seed " << seed;
    std::vector<std::size_t> rt_nodes;
    const Reach rt = runtime_reach(program, opts, rt_nodes);
    EXPECT_EQ(first_difference(ref, rt, rt_nodes), "")
        << "runtime, seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Options, DependClosure,
                         ::testing::Values(ClosureParams{true, true},
                                           ClosureParams{true, false},
                                           ClosureParams{false, true},
                                           ClosureParams{false, false}));

// --- differential replay -----------------------------------------------------

/// Per-iteration record of one replayed program: sequence stamps at each
/// body's start and end, and how often each body ran.
struct IterationLog {
  explicit IterationLog(std::size_t n) : start(n), end(n), runs(n) {}
  void clear() {
    seq = 0;
    for (std::size_t t = 0; t < runs.size(); ++t) {
      start[t] = 0;
      end[t] = 0;
      runs[t] = 0;
    }
  }
  std::atomic<std::uint64_t> seq{0};
  std::vector<std::atomic<std::uint64_t>> start, end;
  std::vector<std::atomic<int>> runs;
};

TEST(ReplayClosure, RandomProgramsReplayInReferenceOrderAcrossAFailure) {
  constexpr int kPrograms = 100;
  constexpr int kTasks = 80;
  constexpr int kIters = 6;
  static double pool[4];
  for (std::uint64_t seed = 1; seed <= kPrograms; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<Clause> program = random_program(seed, kTasks);
    const Reach ref = reference_reach(program);
    // One task throws in one iteration, the discovery one included; at
    // least one iteration follows it.
    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull);
    const int fail_iter = static_cast<int>(rng() % (kIters - 1));
    const std::size_t fail_task = rng() % kTasks;
    std::set<std::uint64_t> want_cancelled_tasks;
    for (std::size_t b = 0; b < program.size(); ++b) {
      if (ref.has_path(fail_task, b)) want_cancelled_tasks.insert(b);
    }

    Runtime::Config cfg;
    cfg.num_threads = 4;
    cfg.watchdog.deadline_seconds = 5;  // a wedged replay fails, not hangs
    Runtime rt(cfg);
    IterationLog log(program.size());
    std::vector<std::uint64_t> ids(program.size());
    PersistentRegion region(rt);
    for (int it = 0; it < kIters; ++it) {
      SCOPED_TRACE("iteration " + std::to_string(it));
      log.clear();
      region.begin_iteration();
      for (std::size_t t = 0; t < program.size(); ++t) {
        std::vector<Depend> deps;
        for (const Item& i : program[t]) {
          deps.push_back(Depend{&pool[i.addr], i.type});
        }
        const bool fail = it == fail_iter && t == fail_task;
        auto body = [&log, t, fail] {
          log.start[t] = ++log.seq;
          ++log.runs[t];
          log.end[t] = ++log.seq;
          if (fail) throw std::runtime_error("seeded failure");
        };
        // Both update paths: a trivially copyable capture is one memcpy, a
        // std::function is moved in place.
        const std::uint64_t id =
            t % 3 == 0
                ? rt.submit(std::function<void()>(body),
                            std::span<const Depend>(deps))
                : rt.submit(body, std::span<const Depend>(deps));
        if (it == 0) ids[t] = id;
        ASSERT_EQ(id, ids[t]) << "replay returned another task id";
      }
      std::set<std::uint64_t> cancelled;
      try {
        region.end_iteration();
        EXPECT_NE(it, fail_iter) << "the seeded failure was not reported";
      } catch (const tdg::TaskGroupError& e) {
        EXPECT_EQ(it, fail_iter) << e.what();
        ASSERT_EQ(e.failures().size(), 1u);
        EXPECT_EQ(e.failures()[0].task_id, ids[fail_task]);
        for (const tdg::CancelledTask& c : e.cancelled()) {
          EXPECT_TRUE(cancelled.insert(c.task_id).second)
              << "task id " << c.task_id << " cancelled twice";
        }
      }
      for (std::size_t t = 0; t < program.size(); ++t) {
        const bool skipped =
            it == fail_iter && want_cancelled_tasks.count(t) != 0;
        EXPECT_EQ(cancelled.count(ids[t]), skipped ? 1u : 0u) << "task " << t;
        ASSERT_EQ(log.runs[t].load(), skipped ? 0 : 1) << "task " << t;
      }
      EXPECT_EQ(cancelled.size(), it == fail_iter ? want_cancelled_tasks.size()
                                                  : 0u);
      for (std::size_t a = 0; a < program.size(); ++a) {
        for (std::size_t b = a + 1; b < program.size(); ++b) {
          if (!ref.has_path(a, b) || log.runs[b] == 0) continue;
          ASSERT_LT(log.end[a], log.start[b])
              << "task " << b << " started before its predecessor " << a
              << " ended";
        }
      }
    }
    EXPECT_EQ(rt.live_tasks(), 0u);
  }
}

}  // namespace
