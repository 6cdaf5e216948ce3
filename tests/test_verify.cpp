// TDG soundness verifier (offline determinacy-race detection), the
// TDG_VERIFY runtime modes, PTSG replay-safety checking, depend-clause
// lint, and the verification streams' trace round-trip.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <vector>

#include "core/persistent.hpp"
#include "core/tdg.hpp"
#include "core/trace_export.hpp"
#include "core/verify.hpp"

namespace tdg {
namespace {

Runtime::Config verified_config(VerifyMode mode = VerifyMode::Post,
                                int threads = 1) {
  Runtime::Config cfg;
  cfg.num_threads = threads;
  cfg.verify = mode;  // forces trace capture in the Runtime constructor
  return cfg;
}

AccessRecord acc(std::uint64_t task, std::uint64_t addr, DependType type,
                 const char* label = "") {
  return AccessRecord{task, addr, type, /*bytes=*/0, label};
}

// --- soundness checker on live runtime graphs -------------------------------

TEST(Verify, CleanChainIsSound) {
  Runtime rt(verified_config());
  int x = 0, y = 0;
  rt.submit([&] { x = 1; }, {Depend::out(&x)});
  rt.submit([&] { y = x; }, {Depend::in(&x), Depend::out(&y)});
  rt.submit([&] { x = y; }, {Depend::in(&y), Depend::inout(&x)});
  rt.taskwait();
  const VerifyReport rep = rt.verify_graph();
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_GE(rep.pairs_checked, 3u);
  EXPECT_EQ(rep.races_total, 0u);
  EXPECT_EQ(rep.addresses, 2u);
}

TEST(Verify, DiamondDedupedEdgesStillSound) {
  // Dedup (optimization b) removes duplicate edges; the pairs they would
  // have ordered must still be reachable through the remaining ones.
  Runtime rt(verified_config());
  double a = 0, b = 0, c = 0;
  rt.submit([&] { a = 1; }, {Depend::out(&a)});
  rt.submit([&] { b = a; }, {Depend::in(&a), Depend::out(&b)});
  rt.submit([&] { c = a; }, {Depend::in(&a), Depend::out(&c)});
  rt.submit([&] { a = b + c; },
            {Depend::in(&b), Depend::in(&c), Depend::out(&a)});
  rt.taskwait();
  const VerifyReport rep = rt.verify_graph();
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(Verify, SeededEdgeDropIsReportedAsRace) {
  // Fault injection: silently drop the first discovered edge — exactly
  // what a missing depend clause (or a discovery bug) would cause. The
  // verifier must call it out with both endpoints.
  Runtime::Config cfg = verified_config(VerifyMode::Post);
  cfg.discovery.seed_drop_edge = 1;
  Runtime rt(cfg);
  int x = 0;
  rt.submit([&] { x = 1; }, {Depend::out(&x)}, {.label = "writer"});
  rt.submit([&] { (void)x; }, {Depend::in(&x)}, {.label = "reader"});
  const VerifyReport rep = rt.verify_graph();
  ASSERT_EQ(rep.races_total, 1u) << rep.summary();
  ASSERT_EQ(rep.races.size(), 1u);
  const RaceFinding& f = rep.races[0];
  EXPECT_EQ(f.addr, reinterpret_cast<std::uint64_t>(&x));
  EXPECT_EQ(f.pred_type, DependType::Out);
  EXPECT_EQ(f.succ_type, DependType::In);
  EXPECT_EQ(f.pred_label, "writer");
  EXPECT_EQ(f.succ_label, "reader");
  EXPECT_NE(f.to_string().find("determinacy race"), std::string::npos);
  rt.taskwait();  // Post mode: reports to stderr, must not throw
}

TEST(Verify, SeededEdgeDropStrictThrowsAtTaskwait) {
  Runtime::Config cfg = verified_config(VerifyMode::Strict);
  cfg.discovery.seed_drop_edge = 1;
  Runtime rt(cfg);
  int x = 0;
  rt.submit([&] { x = 1; }, {Depend::out(&x)});
  rt.submit([&] { (void)x; }, {Depend::in(&x)});
  EXPECT_THROW(rt.taskwait(), VerifyError);
}

TEST(Verify, SeededEdgeDropStrictThrowsAtRegionBarrier) {
  // A persistent region's implicit barrier checks the discovery window as
  // taskwait does, so the race surfaces without an explicit taskwait.
  Runtime::Config cfg = verified_config(VerifyMode::Strict);
  cfg.discovery.seed_drop_edge = 1;
  Runtime rt(cfg);
  int a = 0;
  PersistentRegion region(rt);
  region.begin_iteration();
  rt.submit([&] { a = 1; }, {Depend::out(&a)});
  rt.submit([&] { a = 2; }, {Depend::out(&a)});
  EXPECT_THROW(region.end_iteration(), VerifyError);
}

TEST(Verify, SeededDropOfLaterEdgeCaughtInLargerGraph) {
  // Drop an edge in the middle of a chain; transitive reachability through
  // the others must NOT mask it (the shadow requires the direct pair).
  Runtime::Config cfg = verified_config(VerifyMode::Post);
  cfg.discovery.seed_drop_edge = 3;
  Runtime rt(cfg);
  std::vector<int> cells(4, 0);
  for (int i = 0; i < 4; ++i) {
    rt.submit([] {}, {Depend::inout(&cells[0])});
  }
  rt.taskwait();
  const VerifyReport rep = rt.verify_graph();
  EXPECT_GE(rep.races_total, 1u) << rep.summary();
}

TEST(Verify, InoutsetGenerationOrderingVerified) {
  // Members of one generation are mutually unordered (no required pair),
  // but the generation must follow the preceding writer and precede the
  // next one — with and without redirect nodes (optimization c).
  for (const bool redirect : {true, false}) {
    Runtime::Config cfg = verified_config();
    cfg.discovery.inoutset_redirect = redirect;
    Runtime rt(cfg);
    int x = 0;
    rt.submit([&] { x = 1; }, {Depend::out(&x)});
    for (int i = 0; i < 3; ++i) {
      rt.submit([&] {}, {Depend::inoutset(&x)});
    }
    rt.submit([&] { x = 2; }, {Depend::out(&x)});
    rt.taskwait();
    const VerifyReport rep = rt.verify_graph();
    EXPECT_TRUE(rep.ok()) << "redirect=" << redirect << "\n"
                          << rep.summary();
    // writer->3 members + 3 members->writer2: 6 distinct required pairs
    // whatever the graph realization (writer->writer2 is transitive).
    EXPECT_GE(rep.pairs_checked, 6u);
  }
}

TEST(Verify, RedirectNodeProvidesTransitiveOrdering) {
  // With redirect enabled and a wide generation, successors of the set are
  // ordered through the internal redirect node: member -> R -> successor.
  // The verifier must follow that two-hop path, not demand direct edges.
  Runtime rt(verified_config());
  int x = 0;
  rt.submit([&] { x = 1; }, {Depend::out(&x)});
  for (int i = 0; i < 8; ++i) {
    rt.submit([&] {}, {Depend::inoutset(&x)});
  }
  rt.submit([&] { x = 2; }, {Depend::inout(&x)});
  rt.taskwait();
  EXPECT_GE(rt.stats().discovery.redirect_nodes, 1u)
      << "test assumes the redirect path is exercised";
  const VerifyReport rep = rt.verify_graph();
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(Verify, ScopeClearDoesNotFabricateRaces) {
  // clear_dependency_scope severs discovery history: conflicting accesses
  // across the cut are intentionally unordered and must not be reported.
  Runtime rt(verified_config());
  int x = 0;
  rt.submit([&] { x = 1; }, {Depend::out(&x)});
  rt.taskwait();
  rt.clear_dependency_scope();
  rt.submit([&] { x = 2; }, {Depend::out(&x)});
  rt.taskwait();
  const VerifyReport rep = rt.verify_graph();
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

// --- soundness checker on synthetic streams ---------------------------------

TEST(Verify, BarrierOrdersPairWithoutEdges) {
  // Two writers with no edge between them: a race — unless a taskwait
  // cutoff >= pred and < succ separates them.
  const std::vector<AccessRecord> accesses = {
      acc(1, 0x1000, DependType::Out), acc(2, 0x1000, DependType::Out)};
  const VerifyReport racy = verify_tdg(accesses, {});
  EXPECT_EQ(racy.races_total, 1u);
  const std::vector<std::uint64_t> barriers = {1};
  const VerifyReport ok = verify_tdg(accesses, {}, barriers);
  EXPECT_TRUE(ok.ok()) << ok.summary();
  // A barrier after both tasks separates nothing.
  const std::vector<std::uint64_t> late = {2};
  EXPECT_EQ(verify_tdg(accesses, {}, late).races_total, 1u);
}

TEST(Verify, ScopeClearCutResetsShadowHistory) {
  const std::vector<AccessRecord> accesses = {
      acc(1, 0x2000, DependType::Out), acc(2, 0x2000, DependType::Out)};
  const std::vector<std::uint64_t> cuts = {1};
  const VerifyReport rep = verify_tdg(accesses, {}, {}, cuts);
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_EQ(rep.pairs_checked, 0u);
}

TEST(Verify, CycleIsFatalFinding) {
  const std::vector<AccessRecord> accesses = {
      acc(1, 0x1, DependType::Out), acc(2, 0x1, DependType::Out)};
  const std::vector<TraceEdge> cyc = {{1, 2}, {2, 1}};
  const VerifyReport rep = verify_tdg(accesses, cyc);
  EXPECT_TRUE(rep.cycle);
  EXPECT_FALSE(rep.ok());
  EXPECT_NE(rep.summary().find("CYCLE"), std::string::npos);
  // Self-edges are cycles too.
  const std::vector<TraceEdge> self = {{1, 1}};
  EXPECT_TRUE(verify_tdg(accesses, self).cycle);
}

TEST(Verify, TransitiveOrderingAccepted) {
  // writer(1) -> readers(2,3) -> writer(4): the closing writer must be
  // ordered after the previous writer AND both readers, but a deduping
  // discovery never materializes the 1->4 edge — it is implied through
  // either reader. The verifier must accept the transitive path.
  const std::vector<AccessRecord> accesses = {
      acc(1, 0x10, DependType::Out), acc(2, 0x10, DependType::In),
      acc(3, 0x10, DependType::In), acc(4, 0x10, DependType::Out)};
  const std::vector<TraceEdge> edges = {{1, 2}, {1, 3}, {2, 4}, {3, 4}};
  const VerifyReport rep = verify_tdg(accesses, edges);
  EXPECT_TRUE(rep.ok()) << rep.summary();
  // Required pairs: 1->2, 1->3, 1->4 (prior writer), 2->4, 3->4.
  EXPECT_EQ(rep.pairs_checked, 5u);
}

TEST(Verify, EdgeOrderDoesNotChangeTheVerdict) {
  // Discovery captures a task's in-edges at its submission, so successors
  // never decrease and one pass in capture order proves 1->4 through a
  // reader. A stream whose successors go back down (a merged or hand-made
  // trace) must take the topological pass and reach the same verdict.
  const std::vector<AccessRecord> accesses = {
      acc(1, 0x10, DependType::Out), acc(2, 0x10, DependType::In),
      acc(3, 0x10, DependType::In), acc(4, 0x10, DependType::Out)};
  const std::vector<TraceEdge> captured = {{1, 2}, {1, 3}, {2, 4}, {3, 4}};
  const std::vector<TraceEdge> shuffled = {{2, 4}, {3, 4}, {1, 3}, {1, 2}};
  for (const auto* edges : {&captured, &shuffled}) {
    const VerifyReport rep = verify_tdg(accesses, *edges);
    EXPECT_TRUE(rep.ok()) << rep.summary();
    EXPECT_EQ(rep.pairs_checked, 5u);
    EXPECT_EQ(rep.tasks, 4u);
  }
  // Without 2->4 the closing writer still follows 1 (through 3) but not
  // the reader 2, in either order.
  const std::vector<TraceEdge> dropped = {{3, 4}, {1, 3}, {1, 2}};
  const VerifyReport rep = verify_tdg(accesses, dropped);
  ASSERT_EQ(rep.races_total, 1u) << rep.summary();
  EXPECT_EQ(rep.races[0].pred_id, 2u);
  EXPECT_EQ(rep.races[0].succ_id, 4u);
}

TEST(Verify, WindowSkipsEdgesFromBeforeItsCutoff) {
  // Tasks 1-2 ran before the taskwait at 2; task 3 still gets an edge
  // from 2 (the history outlives the barrier). The window after 2 checks
  // 3 -> 4 and counts only the edges with both ends inside it.
  const std::vector<AccessRecord> accesses = {
      acc(1, 0x10, DependType::Out), acc(2, 0x10, DependType::InOut),
      acc(3, 0x10, DependType::InOut), acc(4, 0x10, DependType::InOut)};
  const std::vector<TraceEdge> edges = {{1, 2}, {2, 3}, {3, 4}};
  const std::vector<std::uint64_t> barriers = {2, 4};
  const VerifyReport rep =
      verify_window(accesses, edges, barriers, {}, 2, /*sample=*/false);
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_EQ(rep.edges, 1u);
  EXPECT_EQ(rep.tasks, 2u);
  EXPECT_EQ(rep.pairs_checked, 1u);
  const VerifyReport broken = verify_window(
      accesses, std::vector<TraceEdge>{{1, 2}, {2, 3}}, barriers, {}, 2,
      /*sample=*/false);
  EXPECT_EQ(broken.races_total, 1u) << broken.summary();
}

TEST(Verify, SparseModeAgreesWithDense) {
  // dense_limit=0 forces the per-pair DFS fallback; both modes must agree
  // on a graph mixing sound chains with one seeded violation.
  std::vector<AccessRecord> accesses;
  std::vector<TraceEdge> edges;
  for (std::uint64_t t = 1; t <= 50; ++t) {
    accesses.push_back(acc(t, 0xA0, DependType::InOut));
    if (t > 1 && t != 30) edges.push_back({t - 1, t});  // 29->30 missing
  }
  const VerifyReport dense = verify_tdg(accesses, edges);
  VerifyOptions sparse_opts;
  sparse_opts.dense_limit = 0;
  const VerifyReport sparse =
      verify_tdg(accesses, edges, {}, {}, sparse_opts);
  EXPECT_EQ(dense.races_total, sparse.races_total);
  EXPECT_EQ(dense.pairs_checked, sparse.pairs_checked);
  ASSERT_EQ(dense.races_total, 1u) << dense.summary();
  EXPECT_EQ(dense.races[0].pred_id, 29u);
  EXPECT_EQ(dense.races[0].succ_id, 30u);
}

TEST(Verify, MaxReportsCapsFindingsNotTotals) {
  std::vector<AccessRecord> accesses;
  for (std::uint64_t t = 1; t <= 10; ++t) {
    accesses.push_back(acc(t, 0xB0, DependType::Out));
  }
  VerifyOptions opts;
  opts.max_reports = 2;
  const VerifyReport rep = verify_tdg(accesses, {}, {}, {}, opts);
  EXPECT_EQ(rep.races.size(), 2u);
  EXPECT_EQ(rep.races_total, 9u);  // chain of consecutive-writer pairs
  EXPECT_NE(rep.summary().find("7 more"), std::string::npos);
}

// --- PTSG replay-safety -----------------------------------------------------

TEST(ReplaySafety, CleanRegionHasNoDrift) {
  Runtime rt(verified_config(VerifyMode::Strict, 2));
  int a = 0, b = 0;
  PersistentRegion region(rt);
  for (int it = 0; it < 4; ++it) {
    region.begin_iteration();
    rt.submit([&] { a = 1; }, {Depend::out(&a)});
    rt.submit([&] { b = a; }, {Depend::in(&a), Depend::out(&b)});
    region.end_iteration();  // strict: would throw on any drift
    EXPECT_TRUE(region.last_drift().empty());
  }
}

TEST(ReplaySafety, AddressDriftDetectedPostMode) {
  // Same task count, but one replay clause names a different address —
  // firstprivate-address drift: the cached plan no longer matches the
  // program. Post mode records findings without throwing.
  Runtime rt(verified_config(VerifyMode::Post, 1));
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
  ASSERT_FALSE(region.last_drift().empty());
  EXPECT_NE(region.last_drift()[0].message.find("drift"),
            std::string::npos);
}

TEST(ReplaySafety, AddressDriftStrictThrows) {
  Runtime rt(verified_config(VerifyMode::Strict, 1));
  int a = 0, b = 0;
  PersistentRegion region(rt);
  region.begin_iteration();
  rt.submit([&] { a = 1; }, {Depend::out(&a)});
  rt.submit([&] {}, {Depend::in(&a)});
  region.end_iteration();

  region.begin_iteration();
  rt.submit([&] { a = 1; }, {Depend::out(&a)});
  rt.submit([&] {}, {Depend::in(&b)});
  EXPECT_THROW(region.end_iteration(), VerifyError);
}

TEST(ReplaySafety, TypeDriftNamesSlotAndBothClauses) {
  // Same address, different type: in(&a) -> inout(&a) at slot 1.
  Runtime rt(verified_config(VerifyMode::Post, 1));
  int a = 0;
  PersistentRegion region(rt);
  region.begin_iteration();
  rt.submit([&] { a = 1; }, {Depend::out(&a)});
  rt.submit([&] {}, {Depend::in(&a)});
  region.end_iteration();

  region.begin_iteration();
  rt.submit([&] { a = 1; }, {Depend::out(&a)});
  rt.submit([&] {}, {Depend::inout(&a)});
  region.end_iteration();
  ASSERT_EQ(region.last_drift().size(), 1u);
  const ReplayDriftFinding& f = region.last_drift()[0];
  EXPECT_EQ(f.slot, 1u);
  std::ostringstream addr;
  addr << "0x" << std::hex << reinterpret_cast<std::uintptr_t>(&a);
  EXPECT_NE(f.message.find("slot 1"), std::string::npos) << f.message;
  EXPECT_NE(f.message.find("{in(" + addr.str() + ")} at discovery"),
            std::string::npos)
      << f.message;
  EXPECT_NE(f.message.find("{inout(" + addr.str() + ")} at replay"),
            std::string::npos)
      << f.message;
}

TEST(ReplaySafety, CleanReplayAfterDriftHasNoFindings) {
  // Findings accumulate slot by slot, so each replay must start empty.
  Runtime rt(verified_config(VerifyMode::Post, 1));
  int a = 0, b = 0;
  PersistentRegion region(rt);
  for (int it = 0; it < 3; ++it) {
    region.begin_iteration();
    rt.submit([&] { a = 1; }, {Depend::out(&a)});
    rt.submit([&] {}, {Depend::in(it == 1 ? &b : &a)});
    region.end_iteration();
    EXPECT_EQ(region.last_drift().empty(), it != 1) << "iteration " << it;
  }
}

TEST(ReplaySafety, FindingsCapAtSixteenAndStrictThrows) {
  std::vector<int> cells(20, 0);
  int other = 0;
  for (VerifyMode mode : {VerifyMode::Post, VerifyMode::Strict}) {
    Runtime rt(verified_config(mode, 1));
    PersistentRegion region(rt);
    for (int it = 0; it < 2; ++it) {
      region.begin_iteration();
      for (int& c : cells) {
        rt.submit([] {}, {Depend::in(it == 0 ? &c : &other)});
      }
      if (it == 1 && mode == VerifyMode::Strict) {
        EXPECT_THROW(region.end_iteration(), VerifyError);
      } else {
        region.end_iteration();
      }
    }
    EXPECT_EQ(region.last_drift().size(), 16u);
  }
}

// --- depend-clause lint -----------------------------------------------------

TEST(Lint, FlagsDeadDependence) {
  const std::vector<AccessRecord> accesses = {
      acc(1, 0xD0, DependType::Out, "solo"),
      acc(1, 0xD1, DependType::In, "solo"),
      acc(2, 0xD1, DependType::In, "peer")};
  const auto findings = lint_clauses(accesses);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, LintKind::DeadDependence);
  EXPECT_EQ(findings[0].addr, 0xD0u);
  EXPECT_EQ(findings[0].task_id, 1u);
  EXPECT_STREQ(lint_kind_name(findings[0].kind), "dead-dependence");
}

TEST(Lint, FlagsRedundantInout) {
  // Readers precede a final inout whose write is never consumed: `in`
  // would avoid the reader->task edges.
  const std::vector<AccessRecord> accesses = {
      acc(1, 0xE0, DependType::Out),  acc(2, 0xE0, DependType::In),
      acc(3, 0xE0, DependType::In),   acc(4, 0xE0, DependType::InOut)};
  const auto findings = lint_clauses(accesses);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, LintKind::RedundantInout);
  EXPECT_EQ(findings[0].task_id, 4u);
  EXPECT_NE(findings[0].message.find("redundant inout"),
            std::string::npos);
}

TEST(Lint, ConsumedInoutIsNotRedundant) {
  const std::vector<AccessRecord> accesses = {
      acc(1, 0xE1, DependType::Out), acc(2, 0xE1, DependType::In),
      acc(3, 0xE1, DependType::InOut), acc(4, 0xE1, DependType::In)};
  EXPECT_TRUE(lint_clauses(accesses).empty());
}

TEST(Lint, FlagsSingletonInoutsetGeneration) {
  const std::vector<AccessRecord> accesses = {
      acc(1, 0xF0, DependType::Out),
      acc(2, 0xF0, DependType::InOutSet),
      acc(3, 0xF0, DependType::In)};
  const auto findings = lint_clauses(accesses);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, LintKind::SingletonInoutset);
  EXPECT_EQ(findings[0].task_id, 2u);
}

TEST(Lint, WideInoutsetGenerationIsClean) {
  const std::vector<AccessRecord> accesses = {
      acc(1, 0xF1, DependType::Out),
      acc(2, 0xF1, DependType::InOutSet),
      acc(3, 0xF1, DependType::InOutSet),
      acc(4, 0xF1, DependType::In)};
  EXPECT_TRUE(lint_clauses(accesses).empty());
}

// --- discovery statistics ---------------------------------------------------

TEST(DiscoveryStatsTotals, KeptAcrossScopeClear) {
  Runtime rt(verified_config());
  int x = 0;
  rt.submit([&] { x = 1; }, {Depend::out(&x)});
  rt.submit([&] { (void)x; }, {Depend::in(&x)});
  rt.taskwait();
  rt.clear_dependency_scope();
  // The runtime's cumulative counters keep running across scopes.
  EXPECT_EQ(rt.stats().discovery.edges_created, 1u);
  rt.submit([&] { x = 2; }, {Depend::out(&x)});
  rt.submit([&] { (void)x; }, {Depend::in(&x)});
  EXPECT_EQ(rt.stats().discovery.edges_created, 2u);
  rt.taskwait();
}

// --- trace round-trip of the verification streams ---------------------------

std::vector<TaskRecord> verification_records() {
  static const char* kLabels[] = {"w", "r1", "r2"};
  std::vector<TaskRecord> rec;
  for (std::uint64_t i = 0; i < 3; ++i) {
    TaskRecord r;
    r.task_id = i + 1;
    r.t_create = 1000 * i;
    r.t_ready = 1000 * i + 100;
    r.t_start = 1000 * i + 500;
    r.t_end = 1000 * i + 900;
    r.thread = 0;
    r.iteration = 0;
    r.label = kLabels[i];
    rec.push_back(r);
  }
  return rec;
}

std::vector<AccessRecord> verification_accesses() {
  return {acc(1, 0xABC0, DependType::Out, "w"),
          acc(1, 0xABD0, DependType::InOutSet, "w"),
          acc(2, 0xABC0, DependType::In, "r1"),
          acc(3, 0xABC0, DependType::InOut, "r2")};
}

void expect_streams_roundtrip(const ParsedTrace& back) {
  const auto want = verification_accesses();
  ASSERT_EQ(back.accesses.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(back.accesses[i].task_id, want[i].task_id) << i;
    EXPECT_EQ(back.accesses[i].addr, want[i].addr) << i;
    EXPECT_EQ(back.accesses[i].type, want[i].type) << i;
  }
  ASSERT_EQ(back.barriers.size(), 2u);
  EXPECT_EQ(back.barriers[0], 1u);
  EXPECT_EQ(back.barriers[1], 3u);
  ASSERT_EQ(back.scope_clears.size(), 1u);
  EXPECT_EQ(back.scope_clears[0], 3u);
}

TEST(VerifyTraceRoundTrip, PerfettoCarriesVerificationStreams) {
  const auto rec = verification_records();
  const auto accesses = verification_accesses();
  const std::vector<TraceEdge> edges = {{1, 2}, {1, 3}, {2, 3}};
  const std::vector<std::uint64_t> barriers = {1, 3};
  const std::vector<std::uint64_t> scope_clears = {3};
  std::ostringstream os;
  write_perfetto(os, rec, edges, accesses, barriers, scope_clears);

  std::istringstream is(os.str());
  const ParsedTrace back = parse_perfetto(is);
  ASSERT_EQ(back.records.size(), rec.size());
  expect_streams_roundtrip(back);
  // ... and the parsed streams feed the verifier directly.
  const VerifyReport rep = verify_tdg(back.accesses, back.edges,
                                      back.barriers, back.scope_clears);
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(VerifyTraceRoundTrip, RuntimeStreamsSurviveExport) {
  // End-to-end: a verified runtime's captured streams, exported and parsed
  // back, still verify clean.
  std::vector<TaskRecord> records;
  std::vector<TraceEdge> edges;
  std::vector<AccessRecord> accesses;
  std::vector<std::uint64_t> barriers;
  std::vector<std::uint64_t> scope_clears;
  {
    Runtime rt({.num_threads = 2, .trace = true, .verify = VerifyMode::Post});
    double a = 0, b = 0;
    rt.submit([&] { a = 1; }, {Depend::out(&a)}, {.label = "p"});
    rt.submit([&] { b = a; }, {Depend::in(&a), Depend::out(&b)},
              {.label = "c"});
    rt.taskwait();
    records = rt.profiler().merged_trace();
    edges = rt.profiler().edges();
    accesses.assign(rt.profiler().accesses().begin(),
                    rt.profiler().accesses().end());
    barriers.assign(rt.profiler().barriers().begin(),
                    rt.profiler().barriers().end());
    scope_clears.assign(rt.profiler().scope_clears().begin(),
                        rt.profiler().scope_clears().end());
  }
  ASSERT_EQ(accesses.size(), 3u);
  ASSERT_FALSE(barriers.empty());

  std::ostringstream os;
  write_perfetto(os, records, edges, accesses, barriers, scope_clears);
  std::istringstream is(os.str());
  const ParsedTrace back = parse_perfetto(is);
  EXPECT_EQ(back.accesses.size(), accesses.size());
  EXPECT_EQ(back.barriers.size(), barriers.size());
  const VerifyReport rep = verify_tdg(back.accesses, back.edges,
                                      back.barriers, back.scope_clears);
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

}  // namespace
}  // namespace tdg
