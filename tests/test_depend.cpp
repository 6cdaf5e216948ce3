// Dependency-discovery semantics: ordering guarantees of in/out/inout/
// inoutset, edge counting, and the paper's optimizations (b) duplicate-edge
// elimination and (c) inoutset redirection (Section 3.1, Figs. 3-4).
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <type_traits>
#include <vector>

#include "core/tdg.hpp"

namespace {

using tdg::Depend;
using tdg::Runtime;

// Single-threaded runtime: tasks only run during taskwait/throttle, so edge
// counts observed before taskwait are deterministic.
Runtime::Config solo_config(bool dedup = true, bool redirect = true) {
  Runtime::Config cfg;
  cfg.num_threads = 1;
  cfg.discovery.dedup_edges = dedup;
  cfg.discovery.inoutset_redirect = redirect;
  return cfg;
}

/// Records execution order; lets tests assert precedence constraints.
class OrderLog {
 public:
  void mark(int id) {
    std::lock_guard<std::mutex> g(mu_);
    order_.push_back(id);
  }
  /// Position of `id` in the execution order; -1 if never executed.
  int pos(int id) const {
    for (std::size_t i = 0; i < order_.size(); ++i) {
      if (order_[i] == id) return static_cast<int>(i);
    }
    return -1;
  }
  void expect_before(int a, int b) const {
    ASSERT_GE(pos(a), 0) << "task " << a << " never ran";
    ASSERT_GE(pos(b), 0) << "task " << b << " never ran";
    EXPECT_LT(pos(a), pos(b))
        << "task " << a << " must run before task " << b;
  }
  std::size_t size() const { return order_.size(); }

 private:
  mutable std::mutex mu_;
  std::vector<int> order_;
};

TEST(Depend, OutThenInCreatesOneEdge) {
  Runtime rt(solo_config());
  int x = 0;
  OrderLog log;
  rt.submit([&] { log.mark(0); }, {Depend::out(&x)});
  rt.submit([&] { log.mark(1); }, {Depend::in(&x)});
  EXPECT_EQ(rt.stats().discovery.edges_created, 1u);
  rt.taskwait();
  log.expect_before(0, 1);
}

TEST(Depend, IndependentReadersShareNoEdge) {
  Runtime rt(solo_config());
  int x = 0;
  OrderLog log;
  rt.submit([&] { log.mark(0); }, {Depend::out(&x)});
  rt.submit([&] { log.mark(1); }, {Depend::in(&x)});
  rt.submit([&] { log.mark(2); }, {Depend::in(&x)});
  rt.submit([&] { log.mark(3); }, {Depend::in(&x)});
  // Writer -> each reader; readers mutually unordered.
  EXPECT_EQ(rt.stats().discovery.edges_created, 3u);
  rt.taskwait();
  log.expect_before(0, 1);
  log.expect_before(0, 2);
  log.expect_before(0, 3);
}

TEST(Depend, WriterAfterReadersWaitsForAll) {
  Runtime rt(solo_config());
  int x = 0;
  OrderLog log;
  rt.submit([&] { log.mark(0); }, {Depend::out(&x)});
  for (int i = 1; i <= 3; ++i) {
    rt.submit([&, i] { log.mark(i); }, {Depend::in(&x)});
  }
  rt.submit([&] { log.mark(4); }, {Depend::out(&x)});
  // 3 writer->reader + 3 reader->writer2 + 1 writer->writer2.
  EXPECT_EQ(rt.stats().discovery.edges_created, 7u);
  rt.taskwait();
  for (int i = 1; i <= 3; ++i) {
    log.expect_before(0, i);
    log.expect_before(i, 4);
  }
}

TEST(Depend, ReadersClearedAfterNewWriter) {
  Runtime rt(solo_config());
  int x = 0;
  OrderLog log;
  rt.submit([&] { log.mark(0); }, {Depend::out(&x)});
  rt.submit([&] { log.mark(1); }, {Depend::in(&x)});
  rt.submit([&] { log.mark(2); }, {Depend::out(&x)});
  rt.submit([&] { log.mark(3); }, {Depend::in(&x)});
  // 0->1, 0->2, 1->2, 2->3: the second reader must not gain an edge from
  // the stale reader generation.
  EXPECT_EQ(rt.stats().discovery.edges_created, 4u);
  rt.taskwait();
  log.expect_before(0, 1);
  log.expect_before(1, 2);
  log.expect_before(2, 3);
}

TEST(Depend, InOutBehavesAsReadWrite) {
  Runtime rt(solo_config());
  int x = 0;
  OrderLog log;
  rt.submit([&] { log.mark(0); }, {Depend::inout(&x)});
  rt.submit([&] { log.mark(1); }, {Depend::inout(&x)});
  rt.submit([&] { log.mark(2); }, {Depend::inout(&x)});
  EXPECT_EQ(rt.stats().discovery.edges_created, 2u);  // serial chain
  rt.taskwait();
  log.expect_before(0, 1);
  log.expect_before(1, 2);
}

TEST(Depend, DuplicateEdgeEliminated) {
  // Fig. 3: one producer writes two addresses both read by one consumer.
  // With optimization (b) the duplicate second edge is skipped in O(1).
  Runtime rt(solo_config(/*dedup=*/true));
  double x = 0, y = 0;
  rt.submit([&] { x = 1; y = 2; }, {Depend::out(&x), Depend::out(&y)});
  rt.submit([&] { (void)(x + y); }, {Depend::in(&x), Depend::in(&y)});
  EXPECT_EQ(rt.stats().discovery.edges_created, 1u);
  EXPECT_EQ(rt.stats().discovery.edges_duplicate, 1u);
  rt.taskwait();
}

TEST(Depend, DuplicateEdgesKeptWithoutOptB) {
  Runtime rt(solo_config(/*dedup=*/false));
  double x = 0, y = 0;
  OrderLog log;
  rt.submit([&] { log.mark(0); }, {Depend::out(&x), Depend::out(&y)});
  rt.submit([&] { log.mark(1); }, {Depend::in(&x), Depend::in(&y)});
  EXPECT_EQ(rt.stats().discovery.edges_created, 2u);
  EXPECT_EQ(rt.stats().discovery.edges_duplicate, 0u);
  rt.taskwait();
  // Double edges must not break the refcount protocol.
  log.expect_before(0, 1);
  EXPECT_EQ(log.size(), 2u);
}

TEST(Depend, SelfDependenceIgnored) {
  // in+out on the same address within one clause would otherwise create a
  // self-edge and deadlock.
  Runtime rt(solo_config(/*dedup=*/false));
  int x = 0;
  rt.submit([&] { x = 1; }, {Depend::in(&x), Depend::out(&x)});
  rt.taskwait();
  EXPECT_EQ(x, 1);
}

TEST(Depend, PrunedEdgeToFinishedPredecessor) {
  Runtime rt(solo_config());
  int x = 0;
  rt.submit([&] { x = 1; }, {Depend::out(&x)});
  rt.taskwait();  // producer executes the writer
  rt.submit([&] { EXPECT_EQ(x, 1); }, {Depend::in(&x)});
  auto s = rt.stats();
  EXPECT_EQ(s.discovery.edges_created, 0u);
  EXPECT_EQ(s.discovery.edges_pruned, 1u);
  rt.taskwait();
}

TEST(Depend, PruneRacesCompletion) {
  // Workers finish chain links while the producer is still discovering
  // later ones, so each edge races its predecessor's completion: either
  // outcome is fine, but a pruned edge must still order the two bodies
  // (each body checks it reads its predecessor's write). The periodic
  // barriers guarantee some edges see a finished predecessor.
  Runtime rt({.num_threads = 4});
  constexpr int kAddrs = 4;
  constexpr int kLen = 4000;
  constexpr int kBarrierEvery = 500;
  std::vector<int> data(kAddrs, 0);
  std::atomic<int> misordered{0};
  for (int step = 0; step < kLen; ++step) {
    if (step > 0 && step % kBarrierEvery == 0) rt.taskwait();
    for (int a = 0; a < kAddrs; ++a) {
      rt.submit(
          [&data, &misordered, a, step] {
            if (data[a] != step) misordered.fetch_add(1);
            data[a] = step + 1;
          },
          {Depend::inout(&data[a])});
    }
  }
  rt.taskwait();
  EXPECT_EQ(misordered.load(), 0);
  for (int a = 0; a < kAddrs; ++a) EXPECT_EQ(data[a], kLen);
  const auto d = rt.stats().discovery;
  EXPECT_EQ(d.edges_created + d.edges_pruned,
            static_cast<std::uint64_t>(kAddrs) * (kLen - 1));
  EXPECT_EQ(d.edges_duplicate, 0u);
  EXPECT_GT(d.edges_pruned, 0u);
  // The registry counters are flushed once per submit, not per edge.
  const tdg::MetricsSnapshot m = rt.metrics().snapshot();
  EXPECT_EQ(m.value("discovery.edges_created"), d.edges_created);
  EXPECT_EQ(m.value("discovery.edges_pruned"), d.edges_pruned);
}

// --- inoutset ---------------------------------------------------------------

struct SetParams {
  int m;  // concurrent writers
  int n;  // consumers
  bool redirect;
  // Explicit zero bytes where padding would be: gtest prints a parameter's
  // raw bytes into the ctest test name, and padding bytes are indeterminate.
  char zero_tail[3] = {};
};
static_assert(std::has_unique_object_representations_v<SetParams>);

class InOutSetEdges : public ::testing::TestWithParam<SetParams> {};

TEST_P(InOutSetEdges, EdgeCountMatchesFig4) {
  const auto p = GetParam();
  Runtime rt(solo_config(/*dedup=*/true, p.redirect));
  std::vector<double> x(16, 0.0);
  OrderLog log;
  for (int i = 0; i < p.m; ++i) {
    rt.submit([&, i] { log.mark(i); }, {Depend::inoutset(x.data())});
  }
  for (int j = 0; j < p.n; ++j) {
    rt.submit([&, j] { log.mark(p.m + j); }, {Depend::in(x.data())});
  }
  const auto s = rt.stats();
  // Members are mutually unordered (no prior writer here). Fig. 4: m*n
  // edges without the redirect node, m+n with it (when m > 1).
  const std::uint64_t expected =
      (p.redirect && p.m > 1)
          ? static_cast<std::uint64_t>(p.m + p.n)
          : static_cast<std::uint64_t>(p.m) * static_cast<std::uint64_t>(p.n);
  EXPECT_EQ(s.discovery.edges_created, expected);
  EXPECT_EQ(s.discovery.redirect_nodes, (p.redirect && p.m > 1) ? 1u : 0u);
  rt.taskwait();
  // Every member before every consumer, in both configurations.
  for (int i = 0; i < p.m; ++i) {
    for (int j = 0; j < p.n; ++j) log.expect_before(i, p.m + j);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, InOutSetEdges,
    ::testing::Values(SetParams{2, 3, true}, SetParams{2, 3, false},
                      SetParams{8, 8, true}, SetParams{8, 8, false},
                      SetParams{1, 4, true}, SetParams{1, 4, false},
                      SetParams{16, 1, true}, SetParams{16, 1, false}));

TEST(Depend, InOutSetOrderedAfterPriorWriter) {
  Runtime rt(solo_config());
  double x = 0;
  OrderLog log;
  rt.submit([&] { log.mark(0); }, {Depend::out(&x)});
  rt.submit([&] { log.mark(1); }, {Depend::inoutset(&x)});
  rt.submit([&] { log.mark(2); }, {Depend::inoutset(&x)});
  rt.taskwait();
  log.expect_before(0, 1);
  log.expect_before(0, 2);
}

TEST(Depend, WriterAfterInOutSetWaitsForAllMembers) {
  for (bool redirect : {true, false}) {
    Runtime rt(solo_config(true, redirect));
    double x = 0;
    OrderLog log;
    for (int i = 0; i < 4; ++i) {
      rt.submit([&, i] { log.mark(i); }, {Depend::inoutset(&x)});
    }
    rt.submit([&] { log.mark(4); }, {Depend::out(&x)});
    rt.taskwait();
    for (int i = 0; i < 4; ++i) log.expect_before(i, 4);
  }
}

TEST(Depend, InOutSetMemberOrderedAfterInterveningReader) {
  // OpenMP 5.1: an inoutset task depends on prior in tasks, and a reader
  // arriving while a generation is open depends on the members so far but
  // not on later members.
  Runtime rt(solo_config());
  double x = 0;
  OrderLog log;
  rt.submit([&] { log.mark(0); }, {Depend::inoutset(&x)});
  rt.submit([&] { log.mark(1); }, {Depend::in(&x)});
  rt.submit([&] { log.mark(2); }, {Depend::inoutset(&x)});
  rt.taskwait();
  log.expect_before(0, 1);
  log.expect_before(1, 2);
}

TEST(Depend, RedirectInvalidatedWhenGenerationGrows) {
  // consumer1 sees a redirect over {m0}, then the set grows; consumer2
  // must wait for the new member too, via a fresh redirect.
  Runtime rt(solo_config());
  double x = 0;
  OrderLog log;
  rt.submit([&] { log.mark(0); }, {Depend::inoutset(&x)});
  rt.submit([&] { log.mark(1); }, {Depend::inoutset(&x)});
  rt.submit([&] { log.mark(2); }, {Depend::in(&x)});       // redirect #1
  rt.submit([&] { log.mark(3); }, {Depend::inoutset(&x)}); // grows set
  rt.submit([&] { log.mark(4); }, {Depend::in(&x)});       // needs member 3
  rt.taskwait();
  log.expect_before(0, 2);
  log.expect_before(1, 2);
  log.expect_before(2, 3);  // member 3 ordered after reader 2
  log.expect_before(3, 4);
}

TEST(Depend, InOutSetPlusInOnSameAddressDoesNotSelfDeadlock) {
  // Regression: a task with inoutset(x) followed by in(x) joins the open
  // generation and then consumes it; the redirect node must not create an
  // indirect self-cycle (T -> R -> T).
  Runtime rt(solo_config());
  double x = 0;
  OrderLog log;
  rt.submit([&] { log.mark(0); }, {Depend::inoutset(&x)});
  rt.submit([&] { log.mark(1); }, {Depend::inoutset(&x)});
  rt.submit([&] { log.mark(2); },
            {Depend::inoutset(&x), Depend::in(&x)});
  rt.submit([&] { log.mark(3); }, {Depend::out(&x)});
  rt.taskwait();
  EXPECT_EQ(log.size(), 4u);
  log.expect_before(0, 3);
  log.expect_before(1, 3);
  log.expect_before(2, 3);
}

TEST(Depend, ManyAddressesIndependentChains) {
  Runtime rt(solo_config());
  constexpr int kChains = 32;
  constexpr int kLen = 16;
  std::vector<int> data(kChains, 0);
  for (int step = 0; step < kLen; ++step) {
    for (int c = 0; c < kChains; ++c) {
      rt.submit([&data, c] { ++data[c]; }, {Depend::inout(&data[c])});
    }
  }
  EXPECT_EQ(rt.stats().discovery.edges_created,
            static_cast<std::uint64_t>(kChains) * (kLen - 1));
  rt.taskwait();
  for (int c = 0; c < kChains; ++c) EXPECT_EQ(data[c], kLen);
}

TEST(Depend, ClearDependencyScopeForgetsHistory) {
  Runtime rt(solo_config());
  int x = 0;
  rt.submit([&] { x = 1; }, {Depend::out(&x)});
  rt.clear_dependency_scope();
  rt.submit([&] { x = 2; }, {Depend::out(&x)});
  EXPECT_EQ(rt.stats().discovery.edges_created, 0u);
  EXPECT_EQ(rt.stats().discovery.edges_pruned, 0u);
  rt.taskwait();
}

}  // namespace
