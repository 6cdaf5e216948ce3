// The runtime's one determinacy checker, exercised end to end: TDG_VERIFY
// parsing and sample mode, seeded edge drops caught at the taskwait,
// per-window checking (constant cost per identical window, bounded
// sample-mode footprint), the subset-soundness of sampling, cross-base
// range-overlap findings, sampling misses caught offline on the exported
// trace, taskbench/multi-tenant cleanliness and the clause lint's
// overlapping-range check.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <random>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/taskbench/taskbench.hpp"
#include "core/tdg.hpp"
#include "core/verify.hpp"
#include "core/worker_pool.hpp"

namespace tdg {
namespace {

namespace tb = tdg::apps::taskbench;

Runtime::Config verify_config(VerifyMode mode, int threads = 1) {
  Runtime::Config cfg;
  cfg.num_threads = threads;
  cfg.verify = mode;
  return cfg;
}

std::uint64_t metric(Runtime& rt, const char* name) {
  return rt.metrics().snapshot().value(name);
}

/// The first two task ids that sample mode checks (or, with `sampled`
/// false, skips).
std::pair<std::uint64_t, std::uint64_t> id_pair(bool sampled) {
  std::vector<std::uint64_t> ids;
  for (std::uint64_t id = 1; ids.size() < 2; ++id) {
    if (verify_samples_task(id) == sampled) ids.push_back(id);
  }
  return {ids[0], ids[1]};
}

/// Submit dependence-free tasks until the next submission gets id `id`.
/// `last` is the id of the latest submission (0 before the first).
void pad_to(Runtime& rt, std::uint64_t id, std::uint64_t& last) {
  while (last + 1 < id) last = rt.submit([] {}, {});
}

/// A writer and a reader of `x` at the given ids, with the writer->reader
/// edge dropped by the seeded discovery fault.
void submit_dropped_pair(Runtime& rt, std::pair<std::uint64_t,
                         std::uint64_t> ids, int& x) {
  std::uint64_t last = 0;
  pad_to(rt, ids.first, last);
  last = rt.submit([&x] { x = 1; }, {Depend::out(&x)}, {.label = "writer"});
  ASSERT_EQ(last, ids.first);
  pad_to(rt, ids.second, last);
  last = rt.submit([&x] { (void)x; }, {Depend::in(&x)}, {.label = "reader"});
  ASSERT_EQ(last, ids.second);
}

// --- TDG_VERIFY=sample ------------------------------------------------------

TEST(VerifySampleEnv, EnvSampleCapturesStreamsWithoutTiming) {
  // Verification reads the clause/edge/barrier streams only: it must not
  // turn on trace mode (per-task records, clock stamps).
  setenv("TDG_VERIFY", "sample", 1);
  Runtime::Config cfg;
  cfg.num_threads = 2;
  cfg.metrics = false;
  Runtime rt(cfg);
  unsetenv("TDG_VERIFY");
  EXPECT_EQ(rt.config().verify, VerifyMode::Sample);
  EXPECT_FALSE(rt.config().trace);
  EXPECT_FALSE(rt.profiler().trace_enabled());
  EXPECT_TRUE(rt.profiler().capturing());
  double a = 0;
  rt.submit([&] { a = 1; }, {Depend::out(&a)});
  rt.submit([&] { (void)a; }, {Depend::in(&a)});
  rt.taskwait();
  EXPECT_TRUE(rt.profiler().merged_trace().empty());
  EXPECT_EQ(metric(rt, "verify.windows"), 1u);
}

TEST(VerifySampling, SampledSetIsAPureFunctionOfTheId) {
  std::size_t sampled = 0, strided = 0;
  for (std::uint64_t id = 1; id <= 4096; ++id) {
    const bool s = verify_samples_task(id);
    EXPECT_EQ(s, verify_samples_task(id)) << id;
    sampled += s ? 1 : 0;
    // A hash, not a stride: the subset is not simply every 16th id.
    strided += s == (id % kVerifySampleRate == 0) ? 1 : 0;
  }
  EXPECT_GT(sampled, 4096u / (2 * kVerifySampleRate));
  EXPECT_LT(sampled, 4096u * 2 / kVerifySampleRate);
  EXPECT_LT(strided, 4096u);
}

TEST(VerifySampling, OnlySampledClausesAreCapturedUnlessTracing) {
  // Sample mode reads the sampled tasks' clauses alone, so the others are
  // not recorded; a trace keeps every clause for export.
  for (const bool trace : {false, true}) {
    Runtime::Config cfg = verify_config(VerifyMode::Sample);
    cfg.trace = trace;
    Runtime rt(cfg);
    std::vector<double> cells(8, 0.0);
    std::set<std::uint64_t> submitted;
    for (int i = 0; i < 128; ++i) {
      double* a = &cells[i % 8];
      submitted.insert(rt.submit([a] { *a += 1; }, {Depend::inout(a)}));
    }
    std::set<std::uint64_t> captured;
    for (const AccessRecord& r : rt.profiler().accesses()) {
      captured.insert(r.task_id);
    }
    std::set<std::uint64_t> expected;
    for (std::uint64_t id : submitted) {
      if (trace || verify_samples_task(id)) expected.insert(id);
    }
    EXPECT_EQ(captured, expected) << "trace " << trace;
    EXPECT_FALSE(captured.empty());
    rt.taskwait();
    EXPECT_EQ(metric(rt, "verify.races"), 0u);
  }
}

TEST(VerifySampling, TwoRunsCheckTheSamePairs) {
  auto run = [] {
    Runtime rt(verify_config(VerifyMode::Sample, 2));
    std::vector<double> cells(8, 0.0);
    for (int i = 0; i < 256; ++i) {
      double* a = &cells[i % 8];
      double* b = &cells[(i + 3) % 8];
      rt.submit([a, b] { *a += *b; }, {Depend::inout(a), Depend::in(b)});
    }
    rt.taskwait();
    return metric(rt, "verify.pairs_checked");
  };
  const std::uint64_t first = run();
  EXPECT_GT(first, 0u);
  EXPECT_EQ(first, run());
}

TEST(VerifySampling, SubsetsOfASoundProgramNeverReportAViolation) {
  // The subset-soundness argument, tested: every per-task sub-stream of a
  // correctly discovered program (inoutset generations and redirect nodes
  // included) verifies clean against the full edge set.
  Runtime::Config cfg;
  cfg.num_threads = 4;
  cfg.trace = true;
  Runtime rt(cfg);
  std::mt19937 rng(7);
  std::vector<double> cells(4, 0.0);
  const DependType types[] = {DependType::In, DependType::Out,
                              DependType::InOut, DependType::InOutSet};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 200; ++i) {
      std::vector<Depend> deps;
      const int n = 1 + static_cast<int>(rng() % 2);
      for (int k = 0; k < n; ++k) {
        deps.push_back(Depend{&cells[rng() % cells.size()], types[rng() % 4]});
      }
      rt.submit([] {}, std::span<const Depend>(deps));
    }
    rt.taskwait();
  }
  Profiler& prof = rt.profiler();
  ASSERT_TRUE(rt.verify_graph().ok());
  std::vector<std::function<bool(std::uint64_t)>> subsets = {
      [](std::uint64_t id) { return verify_samples_task(id); },
      [](std::uint64_t id) { return id % 2 == 0; },
      [](std::uint64_t id) { return id % 3 != 0; },
      [](std::uint64_t id) { return id % 7 == 1; },
  };
  for (std::size_t k = 0; k < subsets.size(); ++k) {
    std::vector<AccessRecord> sub;
    for (const AccessRecord& a : prof.accesses()) {
      if (subsets[k](a.task_id)) sub.push_back(a);
    }
    const VerifyReport rep = verify_tdg(sub, prof.edges(), prof.barriers(),
                                        prof.scope_clears());
    EXPECT_TRUE(rep.ok()) << "subset " << k << ": " << rep.summary();
    EXPECT_GT(rep.pairs_checked, 0u) << "subset " << k;
  }
}

// --- seeded drops caught at the taskwait ------------------------------------

TEST(VerifyOnline, SeededEdgeDropCaughtAtRateOne) {
  // Drop the writer->reader edge exactly as a missing depend clause would:
  // strict mode checks every task, so the taskwait must throw a report
  // naming both endpoints.
  Runtime::Config cfg = verify_config(VerifyMode::Strict);
  cfg.discovery.seed_drop_edge = 1;
  Runtime rt(cfg);
  int x = 0;
  rt.submit([&] { x = 1; }, {Depend::out(&x)}, {.label = "writer"});
  rt.submit([&] { (void)x; }, {Depend::in(&x)}, {.label = "reader"});
  try {
    rt.taskwait();
    FAIL() << "strict mode must throw on the seeded drop";
  } catch (const VerifyError& e) {
    EXPECT_NE(e.report().find("determinacy race"), std::string::npos)
        << e.report();
    EXPECT_NE(e.report().find("writer"), std::string::npos) << e.report();
    EXPECT_NE(e.report().find("reader"), std::string::npos) << e.report();
  }
  EXPECT_EQ(metric(rt, "verify.races"), 1u);
}

TEST(VerifyOnline, SampleModeReportsWithoutThrowing) {
  Runtime::Config cfg = verify_config(VerifyMode::Sample);
  cfg.discovery.seed_drop_edge = 1;
  Runtime rt(cfg);
  int x = 0;
  submit_dropped_pair(rt, id_pair(/*sampled=*/true), x);
  EXPECT_NO_THROW(rt.taskwait());  // reports to stderr
  EXPECT_EQ(metric(rt, "verify.races"), 1u);
}

TEST(VerifyOnline, SeededDropUnderBatchSubmissionIsCaughtAndAttributable) {
  // Under batched submission one discovery window covers the whole batch;
  // the drop log must still attribute the suppressed edge to its endpoints
  // and clause address, and the sampled check must still find the pair.
  Runtime::Config cfg = verify_config(VerifyMode::Sample);
  cfg.discovery.seed_drop_edge = 1;
  Runtime rt(cfg);
  const auto ids = id_pair(/*sampled=*/true);
  std::uint64_t last = 0;
  pad_to(rt, ids.first, last);
  int x = 0;
  std::vector<BatchItem<std::function<void()>>> items;
  items.push_back({[&] { x = 1; }, {Depend::out(&x)}, {.label = "bw"}});
  for (std::uint64_t id = ids.first + 1; id < ids.second; ++id) {
    items.push_back({[] {}, {}, {}});
  }
  items.push_back({[&] { (void)x; }, {Depend::in(&x)}, {.label = "br"}});
  rt.submit_batch(items);
  rt.taskwait();
  const auto& drops = rt.dependency_map().dropped_edges();
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0].nth, 1u);
  EXPECT_EQ(drops[0].addr, static_cast<const void*>(&x));
  EXPECT_EQ(drops[0].pred_id, ids.first);
  EXPECT_EQ(drops[0].succ_id, ids.second);
  EXPECT_EQ(metric(rt, "verify.races"), 1u);
}

TEST(VerifyOnline, RuntimeStaysUsableAfterVerifyError) {
  Runtime::Config cfg = verify_config(VerifyMode::Strict);
  cfg.discovery.seed_drop_edge = 1;
  Runtime rt(cfg);
  int x = 0;
  rt.submit([&] { x = 1; }, {Depend::out(&x)});
  rt.submit([&] { (void)x; }, {Depend::in(&x)});
  EXPECT_THROW(rt.taskwait(), VerifyError);
  // The failed window was consumed at the barrier; clean work proceeds.
  int y = 0;
  rt.submit([&] { y = 1; }, {Depend::out(&y)});
  rt.submit([&] { (void)y; }, {Depend::in(&y)});
  EXPECT_NO_THROW(rt.taskwait());
  EXPECT_EQ(y, 1);
  EXPECT_EQ(metric(rt, "verify.races"), 1u);
}

TEST(VerifyOnline, CleanGraphsGiveNoFindings) {
  Runtime rt(verify_config(VerifyMode::Strict, 2));
  double a = 0, b = 0, c = 0;
  for (int iter = 0; iter < 3; ++iter) {
    rt.submit([&] { a = 1; }, {Depend::out(&a)});
    rt.submit([&] { b = a; }, {Depend::in(&a), Depend::out(&b)});
    rt.submit([&] { c = a; }, {Depend::in(&a), Depend::out(&c)});
    rt.submit([&] { a = b + c; },
              {Depend::in(&b), Depend::in(&c), Depend::inout(&a)});
    EXPECT_NO_THROW(rt.taskwait());
  }
  EXPECT_EQ(metric(rt, "verify.windows"), 3u);
  EXPECT_EQ(metric(rt, "verify.races"), 0u);
  // Five ordering constraints per window: a->b, a->c, a->a', b->a', c->a'.
  EXPECT_EQ(metric(rt, "verify.pairs_checked"), 15u);
}

TEST(VerifyOnline, ScopeClearSeparatedPairsAreNotFlagged) {
  // No ordering is *required* across a dependency-scope clear, so reusing
  // an address after the clear must not flag against the pre-clear writer.
  Runtime rt(verify_config(VerifyMode::Strict));
  int x = 0;
  rt.submit([&] { x = 1; }, {Depend::out(&x)});
  rt.clear_dependency_scope();
  rt.submit([&] { x = 2; }, {Depend::out(&x)});
  EXPECT_NO_THROW(rt.taskwait());
  EXPECT_EQ(metric(rt, "verify.races"), 0u);
}

// --- cross-base range overlaps ----------------------------------------------

TEST(VerifyRangeOverlap, CrossBaseOverlapIsFlaggedNamingBothLabels) {
  // Two different base addresses whose declared extents overlap: discovery
  // matches identity only, so the depend clauses cannot order the pair.
  Runtime rt(verify_config(VerifyMode::Strict));
  alignas(8) char buf[32] = {};
  rt.submit([&] { buf[0] = 1; }, {Depend::out(&buf[0], 16)},
            {.label = "head-writer"});
  rt.submit([&] { (void)buf[8]; }, {Depend::in(&buf[8], 16)},
            {.label = "tail-reader"});
  try {
    rt.taskwait();
    FAIL() << "overlapping cross-base ranges must throw in strict mode";
  } catch (const VerifyError& e) {
    EXPECT_NE(e.report().find("range-overlap"), std::string::npos)
        << e.report();
    EXPECT_NE(e.report().find("head-writer"), std::string::npos);
    EXPECT_NE(e.report().find("tail-reader"), std::string::npos);
  }
}

TEST(VerifyRangeOverlap, DisjointRangesOnDifferentBasesStayClean) {
  Runtime rt(verify_config(VerifyMode::Strict));
  alignas(8) char buf[32] = {};
  rt.submit([&] { buf[0] = 1; }, {Depend::out(&buf[0], 8)});
  rt.submit([&] { (void)buf[16]; }, {Depend::in(&buf[16], 8)});
  EXPECT_NO_THROW(rt.taskwait());
  EXPECT_EQ(metric(rt, "verify.races"), 0u);
}

TEST(VerifyRangeOverlap, FindingKindAndEndpointsAreExact) {
  const std::vector<AccessRecord> accesses = {
      AccessRecord{1, 0x1000, DependType::Out, 16, "w"},
      AccessRecord{2, 0x1008, DependType::In, 16, "r"},
      AccessRecord{3, 0x1004, DependType::In, 4, "r2"},  // In/In with 2
  };
  const VerifyReport rep = verify_tdg(accesses, {});
  // 1-2 and 1-3 race; 2-3 are both readers.
  ASSERT_EQ(rep.races_total, 2u) << rep.summary();
  for (const RaceFinding& f : rep.races) {
    EXPECT_EQ(f.kind, RaceFinding::Kind::RangeOverlap);
    EXPECT_EQ(f.pred_id, 1u);
    EXPECT_EQ(f.addr, 0x1000u);
    EXPECT_EQ(f.pred_bytes, 16u);
  }
  EXPECT_EQ(rep.races[0].succ_id, 3u);  // base 0x1004 sweeps before 0x1008
  EXPECT_EQ(rep.races[1].succ_id, 2u);
  EXPECT_EQ(rep.races[1].succ_addr, 0x1008u);
}

TEST(VerifyRangeOverlap, OrderedBarrierAndScopeSeparatedPairsAreClean) {
  const std::vector<AccessRecord> accesses = {
      AccessRecord{1, 0x1000, DependType::Out, 16, "a"},
      AccessRecord{2, 0x1008, DependType::Out, 16, "b"},
      AccessRecord{3, 0x1004, DependType::Out, 16, "c"},
      AccessRecord{4, 0x100c, DependType::Out, 16, "d"},
  };
  // An edge path 1 -> 2 orders that pair; 3 is cut from 1-2 by a barrier
  // and 4 from 3 by a scope clear.
  const std::vector<TraceEdge> edges = {{1, 2}};
  const std::vector<std::uint64_t> barriers = {2};
  const std::vector<std::uint64_t> clears = {3};
  const VerifyReport rep = verify_tdg(accesses, edges, barriers, clears);
  EXPECT_TRUE(rep.ok()) << rep.summary();
  // Without the cuts, 1-3, 1-4, 2-3, 2-4 and 3-4 all race.
  EXPECT_EQ(verify_tdg(accesses, edges).races_total, 5u);
}

// --- per-window checking ----------------------------------------------------

TEST(VerifyWindows, PairsCheckedPerTaskwaitStaysConstant) {
  // Each taskwait checks only its own window, so identical windows cost
  // the same; re-checking the history would grow the increment linearly.
  Runtime rt(verify_config(VerifyMode::Post, 2));
  std::vector<double> cells(16, 0.0);
  std::vector<std::uint64_t> increments;
  std::uint64_t before = 0;
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 128; ++i) {
      double* a = &cells[i % 16];
      double* b = &cells[(i + 1) % 16];
      rt.submit([a, b] { *a += *b; }, {Depend::inout(a), Depend::in(b)});
    }
    rt.taskwait();
    const std::uint64_t now = metric(rt, "verify.pairs_checked");
    increments.push_back(now - before);
    before = now;
  }
  EXPECT_GT(increments[0], 0u);
  for (std::uint64_t inc : increments) EXPECT_EQ(inc, increments[0]);
  EXPECT_EQ(metric(rt, "verify.windows"), 5u);
  // Post keeps the whole history for verify_graph().
  EXPECT_EQ(rt.profiler().accesses().size(), 5u * 128 * 2);
  EXPECT_TRUE(rt.verify_graph().ok());
}

TEST(VerifyWindows, SampleFootprintStaysBoundedAcrossWindows) {
  // Without a trace to export, sample mode drops each verified window:
  // capture memory is bounded by one window, as the detector's was.
  Runtime rt(verify_config(VerifyMode::Sample, 2));
  std::vector<double> cells(16, 0.0);
  for (int round = 0; round < 4; ++round) {
    for (int t = 0; t < 64; ++t) {
      double* cell = &cells[t % cells.size()];
      rt.submit([cell] { *cell += 1; }, {Depend::inout(cell)});
    }
    rt.clear_dependency_scope();
    rt.taskwait();
    EXPECT_TRUE(rt.profiler().accesses().empty());
    EXPECT_TRUE(rt.profiler().edges().empty());
    EXPECT_TRUE(rt.profiler().scope_clears().empty());
    EXPECT_EQ(rt.profiler().barriers().size(), 1u);
  }
  EXPECT_EQ(metric(rt, "verify.windows"), 4u);
  EXPECT_EQ(metric(rt, "verify.races"), 0u);
}

TEST(VerifyWindows, IdleTaskwaitsCheckNothing) {
  Runtime rt(verify_config(VerifyMode::Strict));
  int x = 0;
  rt.submit([&] { x = 1; }, {Depend::out(&x)});
  rt.taskwait();
  rt.taskwait();
  rt.taskwait();
  EXPECT_EQ(metric(rt, "verify.windows"), 1u);
}

TEST(VerifyWindows, CheckerSeesOnlyTheNewWindow) {
  // The taskwait hands the checker the records captured since the last
  // checked taskwait, however long the history: each check costs its own
  // window. Post keeps the history itself for verify_graph().
  Runtime rt(verify_config(VerifyMode::Post, 2));
  std::vector<double> cells(16, 0.0);
  std::size_t edges_before = 0;
  for (std::size_t round = 1; round <= 5; ++round) {
    for (int i = 0; i < 128; ++i) {
      double* a = &cells[i % 16];
      double* b = &cells[(i + 1) % 16];
      rt.submit([a, b] { *a += *b; }, {Depend::inout(a), Depend::in(b)});
    }
    const Profiler::CaptureView window = rt.profiler().unchecked();
    ASSERT_EQ(window.accesses.size(), 128u * 2);
    EXPECT_EQ(window.edges.size(), rt.profiler().edges().size() - edges_before);
    EXPECT_GT(window.accesses.front().task_id, (round - 1) * 128);
    rt.taskwait();
    const Profiler::CaptureView after = rt.profiler().unchecked();
    EXPECT_TRUE(after.accesses.empty());
    EXPECT_TRUE(after.edges.empty());
    EXPECT_TRUE(after.barriers.empty());
    EXPECT_EQ(rt.profiler().accesses().size(), round * 128 * 2);
    edges_before = rt.profiler().edges().size();
  }
  EXPECT_EQ(metric(rt, "verify.windows"), 5u);
  EXPECT_TRUE(rt.verify_graph().ok());
}

TEST(VerifyWindows, SampleModeSkipsTheReplayDiff) {
  // Only post and strict compare replay clauses with the discovery
  // iteration's. The comparison is cheap, but sample mode's contract
  // covers taskwait windows only.
  for (VerifyMode mode : {VerifyMode::Sample, VerifyMode::Post}) {
    Runtime rt(verify_config(mode));
    int a = 0, b = 0;
    PersistentRegion region(rt);
    region.begin_iteration();
    rt.submit([&] { a = 1; }, {Depend::out(&a)});
    rt.submit([&] {}, {Depend::in(&a)});
    region.end_iteration();
    region.begin_iteration();
    rt.submit([&] { a = 1; }, {Depend::out(&a)});
    rt.submit([&] {}, {Depend::in(&b)});  // drifted address
    region.end_iteration();
    EXPECT_EQ(region.last_drift().empty(), mode == VerifyMode::Sample);
  }
}

TEST(VerifyWindows, RedirectNodeFromAnEarlierWindowIsClean) {
  // An inoutset redirect node takes an id above its first reader's, and a
  // reader in a later window gets an edge from the old node. The window
  // check drops that edge (the barrier orders the pair) and stays clean.
  Runtime rt(verify_config(VerifyMode::Strict, 2));
  double x = 0;
  for (int round = 0; round < 3; ++round) {
    for (int m = 0; m < 3; ++m) {
      rt.submit([] {}, {Depend::inoutset(&x)});
    }
    rt.submit([] {}, {Depend::in(&x)});
    rt.taskwait();
    rt.submit([] {}, {Depend::in(&x)});
    rt.taskwait();
  }
  EXPECT_GT(rt.stats().discovery.redirect_nodes, 0u);
  EXPECT_EQ(metric(rt, "verify.windows"), 6u);
  EXPECT_EQ(metric(rt, "verify.races"), 0u);
  EXPECT_TRUE(rt.verify_graph().ok());
}

TEST(VerifyGraph, IdLayoutDoesNotChangeTheReport) {
  // The checker indexes dense ids through a table and takes submission
  // order as topological when every edge ascends; sparse ids (merged
  // multi-rank traces) sort instead, and descending edges run Kahn. Every
  // layout, dense or sparse reachability, must give the same report.
  Runtime::Config cfg = verify_config(VerifyMode::Post);
  cfg.discovery.seed_drop_edge = 1;
  Runtime rt(cfg);
  std::vector<double> cells(4, 0.0);
  for (int i = 0; i < 48; ++i) {
    double* a = &cells[i % 4];
    double* b = &cells[(i + 1) % 4];
    if (i % 12 < 4) {
      rt.submit([] {}, {Depend::inoutset(&cells[0])});
    } else {
      rt.submit([a, b] { *a += *b; }, {Depend::inout(a), Depend::in(b)});
    }
  }
  rt.taskwait();
  ASSERT_GT(rt.stats().discovery.redirect_nodes, 0u);
  const Profiler& prof = rt.profiler();
  std::uint64_t max_id = 0;
  for (const TraceEdge& e : prof.edges()) max_id = std::max(max_id, e.succ);
  using Relabel = std::function<std::uint64_t(std::uint64_t)>;
  auto check = [&](const Relabel& to, const VerifyOptions& opts) {
    std::vector<AccessRecord> acc(prof.accesses().begin(),
                                  prof.accesses().end());
    for (AccessRecord& a : acc) a.task_id = to(a.task_id);
    std::vector<TraceEdge> edges(prof.edges().begin(), prof.edges().end());
    for (TraceEdge& e : edges) e = {to(e.pred), to(e.succ)};
    const VerifyReport rep = verify_tdg(acc, edges, {}, {}, opts);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> races;
    for (const RaceFinding& f : rep.races) {
      races.emplace_back(f.pred_id, f.succ_id);
    }
    return std::make_tuple(rep.tasks, rep.edges, rep.pairs_checked,
                           rep.races_total, rep.cycle, races);
  };
  const Relabel same = [](std::uint64_t id) { return id; };
  const auto base = check(same, {});
  EXPECT_GT(std::get<3>(base), 0u);
  EXPECT_FALSE(std::get<4>(base));
  VerifyOptions sparse_reach;
  sparse_reach.dense_limit = 0;
  const Relabel spread = [](std::uint64_t id) { return id << 40; };
  const Relabel reverse = [max_id](std::uint64_t id) {
    return max_id + 1 - id;
  };
  for (const VerifyOptions& opts : {VerifyOptions{}, sparse_reach}) {
    EXPECT_EQ(check(same, opts), base);
    auto spread_rep = check(spread, opts);
    for (auto& [p, s] : std::get<5>(spread_rep)) {
      p >>= 40;
      s >>= 40;
    }
    EXPECT_EQ(spread_rep, base);
    auto reverse_rep = check(reverse, opts);
    for (auto& [p, s] : std::get<5>(reverse_rep)) {
      p = max_id + 1 - p;
      s = max_id + 1 - s;
    }
    EXPECT_EQ(reverse_rep, base);
  }
}

TEST(VerifyMetrics, CheckerCountersLiveInTheOneRegistry) {
  Runtime rt(verify_config(VerifyMode::Sample));
  int x = 0;
  rt.submit([&] { x = 1; }, {Depend::out(&x)});
  rt.submit([&] { (void)x; }, {Depend::in(&x)});
  rt.taskwait();
  const MetricsSnapshot snap = rt.metrics().snapshot();
  EXPECT_NE(snap.find("verify.windows"), nullptr);
  EXPECT_NE(snap.find("verify.pairs_checked"), nullptr);
  EXPECT_NE(snap.find("verify.races"), nullptr);
  EXPECT_EQ(snap.value("verify.windows"), 1u);
  EXPECT_EQ(snap.value("verify.races"), 0u);
  for (const char* gone : {"race.checks", "race.flags", "race.tracked_tasks",
                           "race.escalations", "race.shadow_entries"}) {
    EXPECT_EQ(snap.find(gone), nullptr) << gone;
  }
}

// --- sampling miss -> offline verification of the exported trace ----------

TEST(VerifyOffline, SamplingMissIsCaughtByTraceVerify) {
  // Both racing tasks sit outside the sampled set, so the online check
  // provably misses the drop; the exported trace, verified in full the
  // way `tdg-trace verify` does it, must then report the pair.
  Runtime::Config cfg = verify_config(VerifyMode::Sample);
  cfg.trace = true;  // keep the streams for export
  cfg.discovery.seed_drop_edge = 1;
  Runtime rt(cfg);
  int x = 0;
  submit_dropped_pair(rt, id_pair(/*sampled=*/false), x);
  rt.taskwait();
  EXPECT_EQ(metric(rt, "verify.races"), 0u);  // the online miss

  Profiler& prof = rt.profiler();
  std::ostringstream os;
  write_perfetto(os, prof.merged_trace(), prof.edges(), prof.accesses(),
                 prof.barriers(), prof.scope_clears());
  std::istringstream is(os.str());
  const ParsedTrace parsed = parse_perfetto(is);
  const VerifyReport rep = verify_tdg(parsed.accesses, parsed.edges,
                                      parsed.barriers, parsed.scope_clears);
  ASSERT_EQ(rep.races_total, 1u) << rep.summary();
  EXPECT_EQ(rep.races[0].addr, reinterpret_cast<std::uint64_t>(&x));
  const std::string text = rep.summary();
  EXPECT_NE(text.find("writer"), std::string::npos) << text;
  EXPECT_NE(text.find("reader"), std::string::npos) << text;
}

TEST(VerifyOffline, CleanTraceVerifiesClean) {
  Runtime::Config cfg;
  cfg.num_threads = 1;
  cfg.trace = true;
  Runtime rt(cfg);
  int x = 0, y = 0;
  rt.submit([&] { x = 1; }, {Depend::out(&x)});
  rt.submit([&] { y = x; }, {Depend::in(&x), Depend::out(&y)});
  rt.taskwait();
  rt.submit([&] { x = y; }, {Depend::in(&y), Depend::out(&x)});
  rt.taskwait();
  EXPECT_EQ(metric(rt, "verify.windows"), 0u);  // verify off
  const VerifyReport rep = rt.verify_graph();
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_GT(rep.pairs_checked, 0u);
}

TEST(VerifyOffline, ClauseExtentsSurviveTheTraceRoundTrip) {
  // The `/hexbytes` suffix is emitted only for sized clauses, so legacy
  // zero-extent traces stay byte-identical and both forms parse back.
  Runtime::Config cfg;
  cfg.num_threads = 1;
  cfg.trace = true;
  Runtime rt(cfg);
  alignas(8) char buf[32] = {};
  int x = 0;
  rt.submit([&] { buf[0] = 1; }, {Depend::out(&buf[0], 16)});
  rt.submit([&] { x = 1; }, {Depend::out(&x)});  // zero-extent clause
  rt.taskwait();
  std::ostringstream os;
  Profiler& prof = rt.profiler();
  write_perfetto(os, prof.merged_trace(), prof.edges(), prof.accesses(),
                 prof.barriers(), prof.scope_clears());
  std::istringstream is(os.str());
  const ParsedTrace parsed = parse_perfetto(is);
  ASSERT_EQ(parsed.accesses.size(), 2u);
  EXPECT_EQ(parsed.accesses[0].bytes, 16u);
  EXPECT_EQ(parsed.accesses[1].bytes, 0u);
  EXPECT_EQ(parsed.accesses[0].addr, reinterpret_cast<std::uint64_t>(buf));
}

// --- clause lint: overlapping ranges ----------------------------------------

TEST(RaceLint, OverlappingRangesOnOneTaskAreFlagged) {
  std::vector<AccessRecord> accesses = {
      AccessRecord{1, 0x1000, DependType::Out, 16, "a"},
      AccessRecord{1, 0x1008, DependType::In, 16, "a"},   // overlaps [0x1000,+16)
      AccessRecord{2, 0x2000, DependType::Out, 8, "b"},
      AccessRecord{2, 0x2008, DependType::In, 8, "b"},    // adjacent, disjoint
  };
  const auto findings = lint_clauses(accesses);
  std::size_t overlaps = 0;
  for (const auto& f : findings) {
    if (f.kind != LintKind::OverlappingRange) continue;
    ++overlaps;
    EXPECT_EQ(f.task_id, 1u);
    EXPECT_NE(f.message.find("overlap"), std::string::npos) << f.message;
  }
  EXPECT_EQ(overlaps, 1u);
}

TEST(RaceLint, ZeroExtentClausesNeverTriggerOverlapFindings) {
  std::vector<AccessRecord> accesses = {
      AccessRecord{1, 0x1000, DependType::Out, 0, ""},
      AccessRecord{1, 0x1001, DependType::In, 0, ""},
  };
  for (const auto& f : lint_clauses(accesses)) {
    EXPECT_NE(f.kind, LintKind::OverlappingRange) << f.message;
  }
}

// --- taskbench & multi-tenant cleanliness -----------------------------------

TEST(RaceWorkloads, AllNineTaskbenchPatternsAreCleanUnderStrict) {
  for (const tb::Pattern p : tb::all_patterns()) {
    tb::Config cfg;
    cfg.pattern = p;
    cfg.width = 8;
    cfg.steps = 4;
    cfg.iterations = 1;
    Runtime rt(verify_config(VerifyMode::Strict, 4));
    const auto res = tb::run_taskbased(rt, cfg, /*persistent=*/false);
    EXPECT_EQ(res.tasks_executed,
              static_cast<std::uint64_t>(cfg.width) * cfg.steps)
        << tb::pattern_name(p);
    EXPECT_GE(metric(rt, "verify.windows"), 1u) << tb::pattern_name(p);
    EXPECT_EQ(metric(rt, "verify.races"), 0u) << tb::pattern_name(p);
  }
}

TEST(RaceWorkloads, TenantsAreIsolatedOnASharedPool) {
  // A race in one tenant must throw in *that* tenant only; the co-located
  // clean tenant keeps running with zero findings (per-tenant capture).
  WorkerPool::Config pc;
  pc.num_workers = 2;
  pc.max_tenants = 4;
  WorkerPool pool(pc);

  Runtime::Config ca;
  ca.pool = &pool;
  ca.verify = VerifyMode::Strict;
  ca.discovery.seed_drop_edge = 1;
  Runtime racy(ca);

  Runtime::Config cb;
  cb.pool = &pool;
  cb.verify = VerifyMode::Strict;
  Runtime clean(cb);

  int x = 0;
  racy.submit([&] { x = 1; }, {Depend::out(&x)});
  racy.submit([&] { (void)x; }, {Depend::in(&x)});

  int y = 0;
  for (int i = 0; i < 8; ++i) {
    clean.submit([&] { y += 1; }, {Depend::inout(&y)});
  }

  EXPECT_THROW(racy.taskwait(), VerifyError);
  EXPECT_NO_THROW(clean.taskwait());
  EXPECT_EQ(y, 8);
  EXPECT_EQ(metric(racy, "verify.races"), 1u);
  EXPECT_EQ(metric(clean, "verify.races"), 0u);
  EXPECT_EQ(metric(clean, "verify.pairs_checked"), 7u);
}

}  // namespace
}  // namespace tdg
