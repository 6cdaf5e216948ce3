// taskbench generator tests: exact expected edge sets on both engines
// (derived independently from the pattern definition), engine parity,
// persistent-replay stability, strict-verify soundness, and the METG
// helper regressions (frontier on non-monotonic curves, zero-task grain).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "apps/taskbench/taskbench.hpp"
#include "bench/bench_util.hpp"
#include "core/runtime.hpp"

namespace {

using namespace tdg;
using namespace tdg::apps;
namespace tb = tdg::apps::taskbench;

tb::Config small_config(tb::Pattern p) {
  tb::Config cfg;
  cfg.pattern = p;
  cfg.width = 8;  // power of two so fft/tree stay in range
  cfg.steps = 4;
  cfg.iterations = 1;
  return cfg;
}

/// Expected in-edge set of task (step, point), computed from the pattern
/// definition alone (no engine involved). With double-buffered slots the
/// predecessors of (s, i) are exactly:
///   true deps:  (s-1, j) for every j the task reads,
///   WAR:        (s-1, k) for every previous-step reader of slot i,
///   WAW:        (s-2, i), the previous writer of the same slot.
std::set<int> expected_in_edges(const tb::Config& cfg, int s, int i) {
  std::set<int> preds;
  if (s == 0) return preds;
  auto id = [&](int step, int point) { return step * cfg.width + point; };
  std::vector<int> deps;
  tb::dependencies(cfg, s, i, deps);
  for (int j : deps) preds.insert(id(s - 1, j));
  for (int k = 0; k < cfg.width; ++k) {
    tb::dependencies(cfg, s - 1, k, deps);
    for (int j : deps) {
      if (j == i) preds.insert(id(s - 1, k));
    }
  }
  if (s >= 2) preds.insert(id(s - 2, i));
  return preds;
}

TEST(TaskbenchPatterns, DependenciesAreSortedUniqueInRange) {
  std::vector<int> deps;
  for (tb::Pattern p : tb::all_patterns()) {
    const tb::Config cfg = small_config(p);
    for (int s = 0; s < cfg.steps; ++s) {
      for (int i = 0; i < cfg.width; ++i) {
        tb::dependencies(cfg, s, i, deps);
        if (s == 0) {
          EXPECT_TRUE(deps.empty());
        }
        for (std::size_t k = 0; k < deps.size(); ++k) {
          EXPECT_GE(deps[k], 0);
          EXPECT_LT(deps[k], cfg.width);
          if (k > 0) {
            EXPECT_LT(deps[k - 1], deps[k]);
          }
        }
      }
    }
  }
}

TEST(TaskbenchPatterns, RandomNearestIsDeterministic) {
  const tb::Config cfg = small_config(tb::Pattern::RandomNearest);
  std::vector<int> a, b;
  for (int s = 0; s < cfg.steps; ++s) {
    for (int i = 0; i < cfg.width; ++i) {
      tb::dependencies(cfg, s, i, a);
      tb::dependencies(cfg, s, i, b);
      EXPECT_EQ(a, b);
    }
  }
  // A different seed draws different neighbourhoods somewhere.
  tb::Config other = cfg;
  other.seed ^= 0xdeadbeef;
  bool differs = false;
  for (int s = 1; s < cfg.steps && !differs; ++s) {
    for (int i = 0; i < cfg.width && !differs; ++i) {
      tb::dependencies(cfg, s, i, a);
      tb::dependencies(other, s, i, b);
      differs = a != b;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(TaskbenchSimGraph, ExactEdgeSetsMatchTheFormula) {
  for (tb::Pattern p : tb::all_patterns()) {
    const tb::Config cfg = small_config(p);
    const sim::SimGraph g =
        tb::build_sim_graph(cfg, {.dedup_edges = true}, /*persistent=*/false);
    ASSERT_EQ(g.tasks.size(),
              static_cast<std::size_t>(cfg.width) * cfg.steps)
        << tb::pattern_name(p);
    for (int s = 0; s < cfg.steps; ++s) {
      for (int i = 0; i < cfg.width; ++i) {
        const auto& t = g.tasks[static_cast<std::size_t>(s * cfg.width + i)];
        const std::set<int> got(t.preds.begin(), t.preds.end());
        EXPECT_EQ(got.size(), t.preds.size())
            << tb::pattern_name(p) << ": duplicate edge at (" << s << "," << i
            << ")";
        std::set<int> want;
        for (int w : expected_in_edges(cfg, s, i)) want.insert(w);
        EXPECT_EQ(got, std::set<int>(want.begin(), want.end()))
            << tb::pattern_name(p) << " task (" << s << "," << i << ")";
      }
    }
  }
}

TEST(TaskbenchRealRuntime, ExactEdgeSetsMatchTheFormula) {
  for (tb::Pattern p : tb::all_patterns()) {
    const tb::Config cfg = small_config(p);
    // Single worker, no taskwait during submission: nothing executes, so
    // no edge is pruned and the trace holds the complete TDG.
    Runtime::Config rc;
    rc.num_threads = 1;
    rc.trace = true;
    Runtime rt(rc);
    RuntimeEmitter em(rt, {});
    tb::Workspace ws(cfg);
    tb::emit(em, cfg, &ws);
    EXPECT_EQ(rt.stats().discovery.edges_pruned, 0u);

    // Map trace task ids to submission order = (step * width + point).
    std::map<std::uint64_t, int> index;
    for (const auto& a : rt.profiler().accesses()) {
      index.emplace(a.task_id, static_cast<int>(index.size()));
    }
    ASSERT_EQ(index.size(), static_cast<std::size_t>(cfg.width) * cfg.steps);
    std::vector<std::set<int>> in_edges(index.size());
    for (const auto& e : rt.profiler().edges()) {
      in_edges[static_cast<std::size_t>(index.at(e.succ))].insert(
          index.at(e.pred));
    }
    for (int s = 0; s < cfg.steps; ++s) {
      for (int i = 0; i < cfg.width; ++i) {
        EXPECT_EQ(in_edges[static_cast<std::size_t>(s * cfg.width + i)],
                  expected_in_edges(cfg, s, i))
            << tb::pattern_name(p) << " task (" << s << "," << i << ")";
      }
    }
    rt.taskwait();
    EXPECT_EQ(ws.executed.load(),
              static_cast<std::uint64_t>(cfg.width) * cfg.steps);
  }
}

TEST(TaskbenchParity, EnginesCreateTheSameEdgeCounts) {
  for (tb::Pattern p : tb::all_patterns()) {
    tb::Config cfg = small_config(p);
    cfg.iterations = 2;  // cross-iteration edges too
    const sim::SimGraph g =
        tb::build_sim_graph(cfg, {.dedup_edges = true}, /*persistent=*/false);
    Runtime::Config rc;
    rc.num_threads = 1;
    Runtime rt(rc);
    RuntimeEmitter em(rt, {});
    tb::Workspace ws(cfg);
    tb::emit(em, cfg, &ws);
    const auto st = rt.stats();
    EXPECT_EQ(st.discovery.edges_pruned, 0u);
    EXPECT_EQ(g.structural_edges(), st.discovery.edges_created)
        << tb::pattern_name(p);
    rt.taskwait();
  }
}

TEST(TaskbenchExecution, ChecksumIsScheduleIndependent) {
  for (tb::Pattern p : tb::all_patterns()) {
    tb::Config cfg = small_config(p);
    cfg.iterations = 2;
    std::optional<double> reference;
    for (unsigned threads : {1u, 4u}) {
      Runtime::Config rc;
      rc.num_threads = threads;
      Runtime rt(rc);
      const auto res = tb::run_taskbased(rt, cfg, /*persistent=*/false);
      EXPECT_EQ(res.tasks_executed,
                static_cast<std::uint64_t>(cfg.width) * cfg.steps *
                    cfg.iterations);
      if (!reference) {
        reference = res.checksum;
      } else {
        EXPECT_DOUBLE_EQ(*reference, res.checksum) << tb::pattern_name(p);
      }
    }
  }
}

TEST(TaskbenchPersistent, ReplayMatchesReEmission) {
  for (tb::Pattern p :
       {tb::Pattern::Stencil1D, tb::Pattern::Spread, tb::Pattern::Fft,
        tb::Pattern::RandomNearest}) {
    tb::Config cfg = small_config(p);
    cfg.iterations = 3;
    std::optional<double> reference;
    for (bool persistent : {false, true}) {
      Runtime::Config rc;
      rc.num_threads = 2;
      Runtime rt(rc);
      const auto res = tb::run_taskbased(rt, cfg, persistent);
      EXPECT_EQ(res.tasks_executed,
                static_cast<std::uint64_t>(cfg.width) * cfg.steps *
                    cfg.iterations)
          << tb::pattern_name(p) << " persistent=" << persistent;
      if (!reference) {
        reference = res.checksum;
      } else {
        EXPECT_DOUBLE_EQ(*reference, res.checksum)
            << tb::pattern_name(p) << ": replay drifted from re-emission";
      }
    }
  }
}

TEST(TaskbenchPersistent, SimCapturesOneIterationOnly) {
  tb::Config cfg = small_config(tb::Pattern::Stencil1D);
  cfg.iterations = 4;
  const auto persistent =
      tb::build_sim_graph(cfg, {}, /*persistent=*/true);
  const auto inlined = tb::build_sim_graph(cfg, {}, /*persistent=*/false);
  EXPECT_EQ(persistent.tasks.size(),
            static_cast<std::size_t>(cfg.width) * cfg.steps);
  EXPECT_EQ(inlined.tasks.size(),
            static_cast<std::size_t>(cfg.width) * cfg.steps * cfg.iterations);
}

TEST(TaskbenchStrictVerify, AllPatternsDiscoverSoundGraphs) {
  // Redundant with the TDG_VERIFY=strict ctest variant, but this keeps the
  // soundness property pinned even in a plain run.
  for (tb::Pattern p : tb::all_patterns()) {
    tb::Config cfg = small_config(p);
    cfg.iterations = 2;
    Runtime::Config rc;
    rc.num_threads = 4;
    rc.verify = VerifyMode::Strict;
    Runtime rt(rc);
    EXPECT_NO_THROW({
      const auto res = tb::run_taskbased(rt, cfg, /*persistent=*/false);
      EXPECT_GT(res.tasks_executed, 0u);
    }) << tb::pattern_name(p);
  }
}

TEST(TaskbenchCollectives, PeriodicAllreduceGatesTheNextStep) {
  tb::Config cfg = small_config(tb::Pattern::Trivial);
  cfg.collective_period = 2;
  const auto g = tb::build_sim_graph(cfg, {}, /*persistent=*/false);
  // steps=4 -> one collective, before step 2.
  EXPECT_EQ(tb::tasks_per_iteration(cfg),
            static_cast<std::uint64_t>(cfg.width) * cfg.steps + 1);
  ASSERT_EQ(g.tasks.size(), tb::tasks_per_iteration(cfg));
  const std::size_t coll = static_cast<std::size_t>(cfg.width) * 2;
  ASSERT_EQ(g.tasks[coll].attrs.kind, sim::SimTaskKind::Allreduce);
  // Every task of the gated step depends on the collective; trivial tasks
  // have no other inputs, so the edge is easy to see.
  for (int i = 0; i < cfg.width; ++i) {
    const auto& t = g.tasks[coll + 1 + static_cast<std::size_t>(i)];
    EXPECT_TRUE(std::find(t.preds.begin(), t.preds.end(),
                          static_cast<std::uint32_t>(coll)) != t.preds.end())
        << "step-2 task " << i << " not gated by the allreduce";
  }
}

TEST(TaskbenchAccounting, TaskSecondsSumAndImbalance) {
  tb::Config cfg = small_config(tb::Pattern::Nearest);
  cfg.grain_us = 10.0;
  cfg.iterations = 2;
  const double uniform = tb::total_task_seconds(cfg);
  EXPECT_NEAR(uniform, 1e-5 * cfg.width * cfg.steps * cfg.iterations, 1e-12);
  cfg.kernel = tb::Kernel::Imbalanced;
  cfg.imbalance = 4.0;
  const double spread = tb::total_task_seconds(cfg);
  EXPECT_GT(spread, uniform);  // grains stretch into [1, 4] x grain
  EXPECT_LT(spread, 4.0 * uniform);
}

// ---------------------------------------------------------------------------
// METG helper regressions (the bench_metg bugfixes)
// ---------------------------------------------------------------------------

TEST(MetgHelpers, GrainGuardsZeroTasks) {
  tdg::sim::RankResult r;
  r.tasks_executed = 0;
  r.work = 1.0;
  EXPECT_FALSE(bench::grain_us_of(r).has_value());  // was a divide-by-zero
  r.tasks_executed = 10;
  ASSERT_TRUE(bench::grain_us_of(r).has_value());
  EXPECT_NEAR(*bench::grain_us_of(r), 1e5, 1e-6);
}

TEST(MetgHelpers, FrontierStopsAtTheFirstDip) {
  // Non-monotonic curve: a raw min over >=0.95 samples would jump the
  // 0.60 valley and report 10us; the frontier stops at 100us.
  const std::vector<bench::MetgSample> s = {
      {1000, 0.99}, {400, 0.98}, {100, 0.96}, {40, 0.60}, {10, 0.97}};
  const auto metg = bench::metg_frontier(s);
  ASSERT_TRUE(metg.has_value());
  EXPECT_DOUBLE_EQ(*metg, 100.0);
}

TEST(MetgHelpers, FrontierAnchorsAtTheBestSample) {
  // Coarse grains can starve the machine of parallelism and sit under the
  // bar; METG bounds the fine end, so the walk starts at the best sample.
  const std::vector<bench::MetgSample> s = {
      {4000, 0.66}, {1000, 0.80}, {400, 1.00}, {100, 0.97}, {10, 0.50}};
  const auto metg = bench::metg_frontier(s);
  ASSERT_TRUE(metg.has_value());
  EXPECT_DOUBLE_EQ(*metg, 100.0);
}

TEST(MetgHelpers, FrontierEmptyWhenNothingClearsTheBar) {
  EXPECT_FALSE(bench::metg_frontier({{100, 0.5}, {10, 0.4}}).has_value());
  EXPECT_FALSE(bench::metg_frontier({}).has_value());
  EXPECT_EQ(bench::fmt_metg(std::nullopt), "n/a");
  EXPECT_EQ(bench::fmt_metg(12.34, 1), "12.3");
}

TEST(MetgHelpers, NormalizeRatesIsBestRelative) {
  const auto out = bench::normalize_rates({{100, 50.0}, {10, 25.0}});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0].efficiency, 1.0);
  EXPECT_DOUBLE_EQ(out[1].efficiency, 0.5);
  EXPECT_TRUE(bench::normalize_rates({}).empty());
}

}  // namespace
