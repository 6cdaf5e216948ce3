// Online sampling race detector: vector-clock ordering queries, seeded
// edge-drop detection at discovery time, strict-mode escalation through
// the offline verifier, deterministic sampling, cross-base range-overlap
// flags, taskbench/multi-tenant cleanliness, shadow-table churn, the
// clause lint's overlapping-range check and the trace extent round-trip.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <vector>

#include "apps/taskbench/taskbench.hpp"
#include "core/race.hpp"
#include "core/tdg.hpp"
#include "core/verify.hpp"
#include "core/worker_pool.hpp"

namespace tdg {
namespace {

namespace tb = tdg::apps::taskbench;

Runtime::Config race_config(RaceMode mode, int threads = 1) {
  Runtime::Config cfg;
  cfg.num_threads = threads;
  cfg.race.mode = mode;  // strict forces trace capture in the ctor
  return cfg;
}

// --- env parsing ------------------------------------------------------------

TEST(RaceEnv, UnsetAndOffLeaveModeOff) {
  unsetenv("TDG_RACE");
  EXPECT_EQ(race_env_options().mode, RaceMode::Off);
  setenv("TDG_RACE", "off", 1);
  EXPECT_EQ(race_env_options().mode, RaceMode::Off);
  setenv("TDG_RACE", "garbage", 1);
  EXPECT_EQ(race_env_options().mode, RaceMode::Off);  // unknown -> off
  unsetenv("TDG_RACE");
}

TEST(RaceEnv, SampleAndStrictDefaultsAndOverrides) {
  setenv("TDG_RACE", "sample", 1);
  RaceOptions o = race_env_options();
  EXPECT_EQ(o.mode, RaceMode::Sample);
  EXPECT_EQ(o.sample_tasks, 16u);  // sample default: every 16th task

  setenv("TDG_RACE", "strict", 1);
  o = race_env_options();
  EXPECT_EQ(o.mode, RaceMode::Strict);
  EXPECT_EQ(o.sample_tasks, 1u);  // strict default: check everything
  EXPECT_EQ(o.sample_addrs, 1u);

  setenv("TDG_RACE_SAMPLE_TASKS", "8", 1);
  setenv("TDG_RACE_SAMPLE_ADDRS", "4", 1);
  setenv("TDG_RACE_SEED", "7", 1);
  o = race_env_options();
  EXPECT_EQ(o.sample_tasks, 8u);
  EXPECT_EQ(o.sample_addrs, 4u);
  EXPECT_EQ(o.seed, 7u);

  unsetenv("TDG_RACE");
  unsetenv("TDG_RACE_SAMPLE_TASKS");
  unsetenv("TDG_RACE_SAMPLE_ADDRS");
  unsetenv("TDG_RACE_SEED");
}

// --- clock-ordering unit tests (detector used directly) ---------------------

RaceOptions unit_opts(RaceMode mode = RaceMode::Sample) {
  RaceOptions o;
  o.mode = mode;
  o.live_report = false;
  return o;
}

TEST(RaceClocks, EdgeJoinsProveOrderTransitively) {
  RaceDetector det(unit_opts(), 1);
  const std::vector<Depend> none;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    det.on_task_discovered(id, none.data(), 0, "");
  }
  det.on_edge(1, 2);
  det.on_edge(2, 3);
  EXPECT_TRUE(det.ordered(1, 2));
  EXPECT_TRUE(det.ordered(2, 3));
  EXPECT_TRUE(det.ordered(1, 3));   // transitive through the join
  EXPECT_FALSE(det.ordered(3, 1));  // direction matters
  EXPECT_FALSE(det.ordered(2, 1));
}

TEST(RaceClocks, UnrelatedTasksAreUnorderedEvenAcrossLaneAliases) {
  // Ids 1 and 1+W share a clock lane; aliasing must never *invent* order.
  RaceOptions o = unit_opts();
  o.clock_lanes = 4;
  RaceDetector det(o, 1);
  const std::vector<Depend> none;
  for (std::uint64_t id = 1; id <= 9; ++id) {
    det.on_task_discovered(id, none.data(), 0, "");
  }
  det.on_edge(1, 2);
  EXPECT_FALSE(det.ordered(5, 2));  // 5 aliases lane of 1, never joined
  EXPECT_FALSE(det.ordered(1, 9));
}

TEST(RaceClocks, BarrierCutoffOrdersEverythingBefore) {
  RaceDetector det(unit_opts(), 1);
  const std::vector<Depend> none;
  det.on_task_discovered(1, none.data(), 0, "");
  det.on_task_discovered(2, none.data(), 0, "");
  EXPECT_FALSE(det.ordered(1, 2));
  det.on_barrier(2);
  det.on_task_discovered(3, none.data(), 0, "");
  EXPECT_TRUE(det.ordered(1, 3));  // pre-barrier id vs post-barrier id
  EXPECT_TRUE(det.ordered(2, 3));
  // Barrier freed every clock; task 3 has no edges yet (records are lazy).
  EXPECT_EQ(det.live_clock_records(), 0u);
}

TEST(RaceSampling, SampledSetIsAPureFunctionOfSeed) {
  RaceOptions o = unit_opts();
  o.sample_tasks = 4;
  o.seed = 42;
  RaceDetector a(o, 1);
  RaceDetector b(o, 1);
  o.seed = 43;
  RaceDetector c(o, 1);
  std::size_t sampled = 0, differs = 0;
  for (std::uint64_t id = 1; id <= 256; ++id) {
    EXPECT_EQ(a.would_sample_task(id), b.would_sample_task(id));
    sampled += a.would_sample_task(id) ? 1 : 0;
    differs += a.would_sample_task(id) != c.would_sample_task(id) ? 1 : 0;
  }
  // Roughly 1-in-4 sampled, and a different seed picks a different set.
  EXPECT_GT(sampled, 256u / 16);
  EXPECT_LT(sampled, 256u / 2);
  EXPECT_GT(differs, 0u);
  // Rate 1 samples everything (strict default).
  RaceDetector all(unit_opts(RaceMode::Strict), 1);
  for (std::uint64_t id = 1; id <= 32; ++id) {
    EXPECT_TRUE(all.would_sample_task(id));
    EXPECT_TRUE(all.would_sample_addr(id * 64));
  }
}

// --- online detection on the live runtime -----------------------------------

TEST(RaceOnline, SeededEdgeDropCaughtAtRateOneAndEscalatedPrecisely) {
  // Drop the writer->reader edge exactly as a missing depend clause would:
  // the pair is then unordered in the discovered TDG, the reader's shadow
  // check must flag it (rate 1: both endpoints checked), and strict mode
  // must escalate through the offline verifier into a RaceError whose
  // report names both endpoints.
  Runtime::Config cfg = race_config(RaceMode::Strict);
  cfg.discovery.seed_drop_edge = 1;
  Runtime rt(cfg);
  int x = 0;
  rt.submit([&] { x = 1; }, {Depend::out(&x)}, {.label = "writer"});
  rt.submit([&] { (void)x; }, {Depend::in(&x)}, {.label = "reader"});
  try {
    rt.taskwait();
    FAIL() << "strict race mode must throw on the seeded drop";
  } catch (const RaceError& e) {
    EXPECT_NE(e.report().find("race[same-base]"), std::string::npos)
        << e.report();
    EXPECT_NE(e.report().find("writer"), std::string::npos) << e.report();
    EXPECT_NE(e.report().find("reader"), std::string::npos) << e.report();
    // Escalation ran the offline verifier over the flagged window and
    // confirmed the violation with the precise pair report.
    EXPECT_NE(e.report().find("determinacy race"), std::string::npos)
        << e.report();
  }
  ASSERT_NE(rt.race_detector(), nullptr);
  EXPECT_GE(rt.race_detector()->flag_total(), 1u);
}

TEST(RaceOnline, SampleModeReportsWithoutThrowing) {
  Runtime::Config cfg = race_config(RaceMode::Sample);
  cfg.race.sample_tasks = 1;  // deterministic: check every task
  cfg.discovery.seed_drop_edge = 1;
  Runtime rt(cfg);
  int x = 0;
  rt.submit([&] { x = 1; }, {Depend::out(&x)});
  rt.submit([&] { (void)x; }, {Depend::in(&x)});
  rt.taskwait();  // reports to stderr, must not throw
  EXPECT_GE(rt.race_detector()->flag_total(), 1u);
  EXPECT_EQ(rt.race_detector()->tracked_count(), 2u);
}

TEST(RaceOnline, SeededDropComposesWithBatchSubmissionAndIsAttributable) {
  // Under batched submission one discovery window covers the whole batch;
  // the drop log must still attribute the suppressed edge to its endpoints
  // and clause address, and the detector must still flag the pair.
  Runtime::Config cfg = race_config(RaceMode::Sample);
  cfg.race.sample_tasks = 1;
  cfg.discovery.seed_drop_edge = 1;
  Runtime rt(cfg);
  int x = 0;
  std::vector<BatchItem<std::function<void()>>> items;
  items.push_back({[&] { x = 1; }, {Depend::out(&x)}, {.label = "bw"}});
  items.push_back({[&] { (void)x; }, {Depend::in(&x)}, {.label = "br"}});
  rt.submit_batch(items);
  rt.taskwait();
  const auto& drops = rt.dependency_map().dropped_edges();
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0].nth, 1u);
  EXPECT_EQ(drops[0].addr, static_cast<const void*>(&x));
  EXPECT_LT(drops[0].pred_id, drops[0].succ_id);
  EXPECT_GE(rt.race_detector()->flag_total(), 1u);
}

TEST(RaceOnline, RuntimeStaysUsableAfterRaceError) {
  Runtime::Config cfg = race_config(RaceMode::Strict);
  cfg.discovery.seed_drop_edge = 1;
  Runtime rt(cfg);
  int x = 0;
  rt.submit([&] { x = 1; }, {Depend::out(&x)});
  rt.submit([&] { (void)x; }, {Depend::in(&x)});
  EXPECT_THROW(rt.taskwait(), RaceError);
  // The flagged window was drained at the barrier; clean work proceeds.
  int y = 0;
  rt.submit([&] { y = 1; }, {Depend::out(&y)});
  rt.submit([&] { (void)y; }, {Depend::in(&y)});
  EXPECT_NO_THROW(rt.taskwait());
  EXPECT_EQ(y, 1);
}

TEST(RaceOnline, CleanGraphsRaiseNoFlags) {
  Runtime rt(race_config(RaceMode::Strict, 2));
  double a = 0, b = 0, c = 0;
  for (int iter = 0; iter < 3; ++iter) {
    rt.submit([&] { a = 1; }, {Depend::out(&a)});
    rt.submit([&] { b = a; }, {Depend::in(&a), Depend::out(&b)});
    rt.submit([&] { c = a; }, {Depend::in(&a), Depend::out(&c)});
    rt.submit([&] { a = b + c; },
              {Depend::in(&b), Depend::in(&c), Depend::inout(&a)});
    EXPECT_NO_THROW(rt.taskwait());
  }
  EXPECT_EQ(rt.race_detector()->flag_total(), 0u);
  EXPECT_GE(rt.race_detector()->check_count(), 12u);
}

TEST(RaceOnline, ScopeClearSeparatedPairsAreNotFlagged) {
  // No ordering is *required* across a dependency-scope clear, so reusing
  // an address after the clear must not flag against the pre-clear writer.
  Runtime rt(race_config(RaceMode::Strict));
  int x = 0;
  rt.submit([&] { x = 1; }, {Depend::out(&x)});
  rt.clear_dependency_scope();
  rt.submit([&] { x = 2; }, {Depend::out(&x)});
  EXPECT_NO_THROW(rt.taskwait());
  EXPECT_EQ(rt.race_detector()->flag_total(), 0u);
}

TEST(RaceOnline, CrossBaseRangeOverlapIsFlagged) {
  // Two different base addresses whose declared extents overlap: discovery
  // matches identity only, so the depend clauses are structurally unable
  // to order the pair — the interval shadow table must flag it.
  Runtime::Config cfg = race_config(RaceMode::Strict);
  Runtime rt(cfg);
  alignas(8) char buf[32] = {};
  rt.submit([&] { buf[0] = 1; }, {Depend::out(&buf[0], 16)},
            {.label = "head-writer"});
  rt.submit([&] { (void)buf[8]; }, {Depend::in(&buf[8], 16)},
            {.label = "tail-reader"});
  try {
    rt.taskwait();
    FAIL() << "overlapping cross-base ranges must throw in strict mode";
  } catch (const RaceError& e) {
    EXPECT_NE(e.report().find("race[range-overlap]"), std::string::npos)
        << e.report();
    EXPECT_NE(e.report().find("head-writer"), std::string::npos);
    EXPECT_NE(e.report().find("tail-reader"), std::string::npos);
  }
}

TEST(RaceOnline, DisjointRangesOnDifferentBasesStayClean) {
  Runtime rt(race_config(RaceMode::Strict));
  alignas(8) char buf[32] = {};
  rt.submit([&] { buf[0] = 1; }, {Depend::out(&buf[0], 8)});
  rt.submit([&] { (void)buf[16]; }, {Depend::in(&buf[16], 8)});
  EXPECT_NO_THROW(rt.taskwait());
  EXPECT_EQ(rt.race_detector()->flag_total(), 0u);
}

TEST(RaceOnline, ShadowAndClockStateDrainToZeroAcrossWindows) {
  // Churn check: repeated windows must not leak shadow entries or clock
  // records (both are slab-backed; the leak shows up as a live count).
  Runtime rt(race_config(RaceMode::Sample, 2));
  std::vector<double> cells(16, 0.0);
  for (int round = 0; round < 4; ++round) {
    for (int t = 0; t < 64; ++t) {
      double* cell = &cells[t % cells.size()];
      rt.submit([cell] { *cell += 1; }, {Depend::inout(cell)});
    }
    rt.taskwait();
    EXPECT_EQ(rt.race_detector()->live_shadow_entries(), 0u);
    EXPECT_EQ(rt.race_detector()->live_clock_records(), 0u);
  }
  EXPECT_EQ(rt.race_detector()->flag_total(), 0u);
  EXPECT_EQ(rt.race_detector()->tracked_count(),
            rt.race_detector()->finished_tracked_count());
}

TEST(RaceOnline, MetricsExposeDetectorCounters) {
  Runtime rt(race_config(RaceMode::Sample));
  int x = 0;
  rt.submit([&] { x = 1; }, {Depend::out(&x)});
  rt.submit([&] { (void)x; }, {Depend::in(&x)});
  rt.taskwait();
  const auto snap = rt.metrics().snapshot();
  EXPECT_GE(snap.value("race.tracked_tasks"), 1u);
  EXPECT_GE(snap.value("race.checks"), 1u);
  EXPECT_EQ(snap.value("race.flags"), 0u);
  EXPECT_EQ(snap.value("race.shadow_entries"), 0u);  // drained at barrier
}

// --- sampling miss -> offline escalation ------------------------------------

TEST(RaceOffline, SamplingMissIsCaughtByStrictTraceReplay) {
  // Pick a seed under which neither racing task is sampled, so the online
  // pass provably misses the drop; the exported streams replayed through
  // race_scan (strict: rate 1) must then produce the precise report.
  RaceOptions probe = unit_opts();
  probe.sample_tasks = 1 << 20;
  while (true) {
    RaceDetector det(probe, 1);
    if (!det.would_sample_task(1) && !det.would_sample_task(2)) break;
    ++probe.seed;
  }
  Runtime::Config cfg = race_config(RaceMode::Sample);
  cfg.race.sample_tasks = probe.sample_tasks;
  cfg.race.seed = probe.seed;
  cfg.trace = true;  // sample mode does not force capture; opt in
  cfg.discovery.seed_drop_edge = 1;
  Runtime rt(cfg);
  int x = 0;
  rt.submit([&] { x = 1; }, {Depend::out(&x)}, {.label = "writer"});
  rt.submit([&] { (void)x; }, {Depend::in(&x)}, {.label = "reader"});
  rt.taskwait();
  EXPECT_EQ(rt.race_detector()->flag_total(), 0u);  // the online miss

  Profiler& prof = rt.profiler();
  const RaceScanResult res =
      race_scan(prof.accesses(), prof.edges(), prof.barriers(),
                prof.scope_clears());
  ASSERT_GE(res.flags.size(), 1u) << res.report;
  EXPECT_TRUE(res.any_confirmed());
  EXPECT_EQ(res.flags[0].addr, reinterpret_cast<std::uint64_t>(&x));
  EXPECT_NE(res.report.find("writer"), std::string::npos) << res.report;
  EXPECT_NE(res.report.find("reader"), std::string::npos) << res.report;
}

TEST(RaceOffline, CleanTraceScansClean) {
  Runtime::Config cfg = race_config(RaceMode::Off);
  cfg.trace = true;
  Runtime rt(cfg);
  int x = 0, y = 0;
  rt.submit([&] { x = 1; }, {Depend::out(&x)});
  rt.submit([&] { y = x; }, {Depend::in(&x), Depend::out(&y)});
  rt.taskwait();
  rt.submit([&] { x = y; }, {Depend::in(&y), Depend::out(&x)});
  rt.taskwait();
  Profiler& prof = rt.profiler();
  const RaceScanResult res =
      race_scan(prof.accesses(), prof.edges(), prof.barriers(),
                prof.scope_clears());
  EXPECT_TRUE(res.flags.empty()) << res.report;
  EXPECT_FALSE(res.any_confirmed());
}

TEST(RaceOffline, ClauseExtentsSurviveTheTraceRoundTrip) {
  // The `/hexbytes` suffix is emitted only for sized clauses, so legacy
  // zero-extent traces stay byte-identical and both forms parse back.
  Runtime::Config cfg = race_config(RaceMode::Off);
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

TEST(RaceWorkloads, AllNineTaskbenchPatternsAreRaceCleanUnderStrict) {
  for (const tb::Pattern p : tb::all_patterns()) {
    tb::Config cfg;
    cfg.pattern = p;
    cfg.width = 8;
    cfg.steps = 4;
    cfg.iterations = 1;
    Runtime rt(race_config(RaceMode::Strict, 4));
    const auto res = tb::run_taskbased(rt, cfg, /*persistent=*/false);
    EXPECT_EQ(res.tasks_executed,
              static_cast<std::uint64_t>(cfg.width) * cfg.steps)
        << tb::pattern_name(p);
    EXPECT_EQ(rt.race_detector()->flag_total(), 0u) << tb::pattern_name(p);
    EXPECT_GT(rt.race_detector()->tracked_count(), 0u);
  }
}

TEST(RaceWorkloads, TenantsAreIsolatedOnASharedPool) {
  // A race in one tenant must throw in *that* tenant only; the co-located
  // clean tenant keeps running with zero flags (per-tenant detectors).
  WorkerPool::Config pc;
  pc.num_workers = 2;
  pc.max_tenants = 4;
  WorkerPool pool(pc);

  Runtime::Config ca;
  ca.pool = &pool;
  ca.race.mode = RaceMode::Strict;
  ca.discovery.seed_drop_edge = 1;
  Runtime racy(ca);

  Runtime::Config cb;
  cb.pool = &pool;
  cb.race.mode = RaceMode::Strict;
  Runtime clean(cb);

  int x = 0;
  racy.submit([&] { x = 1; }, {Depend::out(&x)});
  racy.submit([&] { (void)x; }, {Depend::in(&x)});

  int y = 0;
  for (int i = 0; i < 8; ++i) {
    clean.submit([&] { y += 1; }, {Depend::inout(&y)});
  }

  EXPECT_THROW(racy.taskwait(), RaceError);
  EXPECT_NO_THROW(clean.taskwait());
  EXPECT_EQ(y, 8);
  EXPECT_GE(racy.race_detector()->flag_total(), 1u);
  EXPECT_EQ(clean.race_detector()->flag_total(), 0u);
}

}  // namespace
}  // namespace tdg
