// Robustness and edge cases across the runtime: task-body storage paths
// (inline / heap / non-trivially-copyable) under persistent replay,
// throttled persistence, iteration tagging in traces, and randomized
// persistent graphs.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "core/tdg.hpp"

namespace {

using tdg::Depend;
using tdg::PersistentRegion;
using tdg::Runtime;

TEST(TaskBody, LargeCaptureSpillsToHeapAndExecutes) {
  Runtime rt({.num_threads = 2});
  std::array<double, 64> big{};  // 512 bytes: beyond the inline buffer
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<double>(i);
  }
  double sum = 0;
  rt.submit(
      [big, &sum] {
        for (double v : big) sum += v;
      },
      {});
  rt.taskwait();
  EXPECT_EQ(sum, 63.0 * 64 / 2);
}

TEST(TaskBody, HeapCaptureReplaysWithUpdatedValues) {
  Runtime rt({.num_threads = 2});
  std::array<std::int64_t, 64> payload{};
  std::int64_t out = 0;
  PersistentRegion region(rt);
  for (int it = 0; it < 4; ++it) {
    payload.fill(it);
    region.begin_iteration();
    rt.submit(
        [payload, &out] {
          std::int64_t s = 0;
          for (auto v : payload) s += v;
          out = s;
        },
        {Depend::out(&out)});
    region.end_iteration();
    EXPECT_EQ(out, 64 * it) << "heap-stored firstprivate not updated";
  }
}

TEST(TaskBody, NonTriviallyCopyableCaptureReplays) {
  // std::string captures exercise the destroy + move-construct replay
  // path (no memcpy shortcut).
  Runtime rt({.num_threads = 2});
  std::string result;
  PersistentRegion region(rt);
  for (int it = 0; it < 4; ++it) {
    const std::string label = "iteration-" + std::to_string(it) +
                              std::string(64, 'x');  // defeat SSO
    region.begin_iteration();
    rt.submit([label, &result] { result = label; }, {Depend::out(&result)});
    region.end_iteration();
    EXPECT_EQ(result, label);
  }
}

// --- TaskBody storage boundary ----------------------------------------------

/// A capture of an output pointer plus N words, optionally over-aligned.
template <std::size_t N, std::size_t Align = alignof(std::int64_t)>
struct alignas(Align) Words {
  std::int64_t* out;
  std::int64_t v[N];
};

/// The same lambda type for every call with the same capture type, so
/// update() can replay it.
template <class W>
auto summing(W w) {
  return [w] {
    std::int64_t s = 0;
    for (std::int64_t x : w.v) s += x;
    *w.out = s;
  };
}

template <class W>
W words(std::int64_t* out, std::int64_t base) {
  W w{};
  w.out = out;
  for (std::size_t i = 0; i < std::size(w.v); ++i) {
    w.v[i] = base + static_cast<std::int64_t>(i);
  }
  return w;
}

bool inside(const tdg::TaskBody& b, const void* p) {
  const auto lo = reinterpret_cast<std::uintptr_t>(&b);
  const auto at = reinterpret_cast<std::uintptr_t>(p);
  return at >= lo && at < lo + sizeof(tdg::TaskBody);
}

/// Emplace, run, replay through update() with new values, run again.
/// Returns whether the capture was stored inside the body.
template <class W>
bool runs_and_replays() {
  std::int64_t out = 0;
  tdg::TaskBody body;
  body.emplace(summing(words<W>(&out, 0)));
  EXPECT_EQ(body.capture_bytes(), sizeof(summing(W{})));
  body.invoke();
  const std::int64_t n = static_cast<std::int64_t>(std::size(W{}.v));
  EXPECT_EQ(out, n * (n - 1) / 2);
  body.update(summing(words<W>(&out, 100)));
  body.invoke();
  EXPECT_EQ(out, 100 * n + n * (n - 1) / 2);
  return inside(body, body.capture_dst());
}

TEST(TaskBody, FiftySixByteCaptureIsInline) {
  using W = Words<6>;
  static_assert(sizeof(summing(W{})) == tdg::TaskBody::kInlineBytes);
  EXPECT_TRUE(runs_and_replays<W>());
}

TEST(TaskBody, SixtyFourByteCaptureSpills) {
  using W = Words<7>;
  static_assert(sizeof(summing(W{})) == 64);
  EXPECT_FALSE(runs_and_replays<W>());
}

TEST(TaskBody, OverAlignedCaptureSpills) {
  using W = Words<1, 16>;
  static_assert(sizeof(summing(W{})) <= tdg::TaskBody::kInlineBytes);
  static_assert(alignof(decltype(summing(W{}))) == 16);
  EXPECT_FALSE(runs_and_replays<W>());
}

/// Counts live copies, so a double destroy or a leaked copy shows.
struct Tracked {
  int* live;
  explicit Tracked(int* l) : live(l) { ++*live; }
  Tracked(const Tracked& o) : live(o.live) { ++*live; }
  Tracked& operator=(const Tracked&) = delete;
  ~Tracked() { --*live; }
};

/// Emplace a capture made by `make`, replay it through update() (destroy
/// + move-construct in place), then reset: exactly one copy is live until
/// the reset, none after.
template <class Make>
void destroyed_once(Make make, bool spill, const int& live) {
  tdg::TaskBody body;
  body.emplace(make());
  EXPECT_EQ(inside(body, body.capture_dst()), !spill);
  static_assert(!std::is_trivially_copyable_v<decltype(make())>);
  EXPECT_EQ(live, 1);
  body.update(make());
  EXPECT_EQ(live, 1);
  body.reset();
  EXPECT_EQ(live, 0);
  EXPECT_TRUE(body.empty());
  body.reset();  // an empty body resets to a no-op
  EXPECT_EQ(live, 0);
}

TEST(TaskBody, NonTrivialCaptureIsDestroyedOnceOnReset) {
  int live = 0;
  {
    SCOPED_TRACE("inline");
    destroyed_once([&live] { return [t = Tracked(&live)] {}; }, false, live);
  }
  {
    SCOPED_TRACE("heap");
    destroyed_once(
        [&live] {
          return [t = Tracked(&live), pad = std::array<char, 64>{}] {};
        },
        true, live);
  }
}

TEST(TaskBody, DescriptorIsOneFourLineSlabBlock) {
  Runtime rt({.num_threads = 1});
  EXPECT_EQ(rt.task_arena().block_bytes(), 256u);
}

TEST(Persistent, WorksUnderTightTotalThrottle) {
  Runtime::Config cfg;
  cfg.num_threads = 2;
  cfg.throttle.max_total = 8;
  Runtime rt(cfg);
  constexpr int kTasks = 64;
  constexpr int kIters = 4;
  std::vector<int> hits(kTasks, 0);
  int chain = 0;
  PersistentRegion region(rt);
  for (int it = 0; it < kIters; ++it) {
    region.begin_iteration();
    for (int k = 0; k < kTasks; ++k) {
      rt.submit([&hits, k] { ++hits[static_cast<std::size_t>(k)]; },
                {Depend::inout(&chain)});
    }
    region.end_iteration();
  }
  for (int k = 0; k < kTasks; ++k) EXPECT_EQ(hits[static_cast<std::size_t>(k)], kIters);
}

TEST(Persistent, TraceRecordsCarryIterationIndex) {
  Runtime rt({.num_threads = 2, .trace = true});
  int x = 0;
  PersistentRegion region(rt);
  constexpr int kIters = 3;
  for (int it = 0; it < kIters; ++it) {
    region.begin_iteration();
    for (int k = 0; k < 5; ++k) {
      rt.submit([&x] { ++x; }, {Depend::inout(&x)}, {.label = "inc"});
    }
    region.end_iteration();
  }
  const auto trace = rt.profiler().merged_trace();
  ASSERT_EQ(trace.size(), 5u * kIters);
  std::array<int, kIters> per_iter{};
  for (const auto& rec : trace) {
    ASSERT_LT(rec.iteration, static_cast<std::uint32_t>(kIters));
    ++per_iter[rec.iteration];
  }
  for (int c : per_iter) EXPECT_EQ(c, 5);
}

TEST(Persistent, RandomGraphReplaysCorrectlyEveryIteration) {
  // A randomized layered DAG under a persistent region: every iteration
  // must recompute the same dataflow with the iteration's inputs.
  Runtime rt({.num_threads = 4});
  constexpr int kLayers = 8;
  constexpr int kWidth = 12;
  constexpr int kIters = 6;
  std::vector<std::vector<std::int64_t>> data(
      kLayers, std::vector<std::int64_t>(kWidth, 0));
  std::uint64_t seed = 777;
  auto rnd = [&seed] {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<int>((seed >> 33) % kWidth);
  };
  // Fixed topology, generated once.
  std::vector<std::array<int, 2>> inputs(kLayers * kWidth);
  for (auto& in : inputs) in = {rnd(), rnd()};

  PersistentRegion region(rt);
  for (int it = 0; it < kIters; ++it) {
    region.begin_iteration();
    for (int w = 0; w < kWidth; ++w) {
      rt.submit(
          [&data, w, it] { data[0][static_cast<std::size_t>(w)] = w + it; },
          {Depend::out(&data[0][static_cast<std::size_t>(w)])});
    }
    for (int l = 1; l < kLayers; ++l) {
      for (int w = 0; w < kWidth; ++w) {
        const auto in = inputs[static_cast<std::size_t>(l * kWidth + w)];
        rt.submit(
            [&data, l, w, in] {
              data[static_cast<std::size_t>(l)][static_cast<std::size_t>(w)] =
                  data[static_cast<std::size_t>(l - 1)]
                      [static_cast<std::size_t>(in[0])] +
                  data[static_cast<std::size_t>(l - 1)]
                      [static_cast<std::size_t>(in[1])];
            },
            {Depend::in(&data[static_cast<std::size_t>(l - 1)]
                             [static_cast<std::size_t>(in[0])]),
             Depend::in(&data[static_cast<std::size_t>(l - 1)]
                             [static_cast<std::size_t>(in[1])]),
             Depend::out(&data[static_cast<std::size_t>(l)]
                              [static_cast<std::size_t>(w)])});
      }
    }
    region.end_iteration();

    // Serial recomputation must match exactly.
    std::vector<std::vector<std::int64_t>> check(
        kLayers, std::vector<std::int64_t>(kWidth, 0));
    for (int w = 0; w < kWidth; ++w) check[0][static_cast<std::size_t>(w)] = w + it;
    for (int l = 1; l < kLayers; ++l) {
      for (int w = 0; w < kWidth; ++w) {
        const auto in = inputs[static_cast<std::size_t>(l * kWidth + w)];
        check[static_cast<std::size_t>(l)][static_cast<std::size_t>(w)] =
            check[static_cast<std::size_t>(l - 1)]
                 [static_cast<std::size_t>(in[0])] +
            check[static_cast<std::size_t>(l - 1)]
                 [static_cast<std::size_t>(in[1])];
      }
    }
    EXPECT_EQ(data, check) << "iteration " << it;
  }
}

TEST(Runtime, ManySmallRegionsBackToBack) {
  // Persistent regions are per-scope; creating and destroying several in
  // one runtime must not leak state between them.
  Runtime rt({.num_threads = 2});
  int x = 0;
  for (int round = 0; round < 5; ++round) {
    PersistentRegion region(rt);
    for (int it = 0; it < 3; ++it) {
      region.begin_iteration();
      rt.submit([&x] { ++x; }, {Depend::inout(&x)});
      region.end_iteration();
    }
  }
  EXPECT_EQ(x, 15);
}

TEST(Runtime, EdgePublicationRaceRegression) {
  // Regression for the discover_edge TOCTOU: a predecessor completing
  // between edge publication and the successor's refcount increment used
  // to double-enqueue the successor (double execution, double release).
  // Tiny tasks + immediate chains maximize the window.
  for (int round = 0; round < 30; ++round) {
    Runtime rt({.num_threads = 4});
    std::vector<double> cells(16, 0.0);
    std::atomic<int> runs{0};
    for (int i = 0; i < 400; ++i) {
      const auto c = static_cast<std::size_t>(i % cells.size());
      rt.submit([&runs] { ++runs; }, {Depend::inout(&cells[c])});
    }
    rt.taskwait();
    ASSERT_EQ(runs.load(), 400) << "task executed twice or lost";
    ASSERT_EQ(rt.stats().tasks_executed, 400u);
  }
}

TEST(Runtime, RedirectLifetimeRaceRegression) {
  // Regression: an inoutset redirect node completing inline at seal time
  // must survive for the consumer edge (the map holds a reference).
  for (int round = 0; round < 50; ++round) {
    Runtime::Config cfg;
    cfg.num_threads = 2;
    cfg.throttle.max_ready = 0;  // members finish before the consumer
    Runtime rt(cfg);
    double x = 0;
    std::atomic<int> n{0};
    for (int i = 0; i < 8; ++i) {
      rt.submit([&n] { ++n; }, {Depend::inoutset(&x)});
    }
    rt.submit([&n] { ++n; }, {Depend::in(&x)});
    rt.taskwait();
    ASSERT_EQ(n.load(), 9);
  }
}

TEST(Runtime, StatsSurviveHeavyChurn) {
  Runtime rt({.num_threads = 4});
  constexpr int kTasks = 5000;
  std::atomic<int> n{0};
  for (int i = 0; i < kTasks; ++i) {
    rt.submit([&n] { ++n; }, {});
    if (i % 512 == 0) rt.taskwait();
  }
  rt.taskwait();
  EXPECT_EQ(n.load(), kTasks);
  EXPECT_EQ(rt.stats().tasks_executed, static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(rt.live_tasks(), 0u);
}

}  // namespace
