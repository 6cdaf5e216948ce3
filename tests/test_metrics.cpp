// Unit tests for the metrics registry: bucketing, snapshot/delta
// semantics, the enabled flag, idempotent registration, and the runtime's
// own instrumentation counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/metrics.hpp"
#include "core/persistent.hpp"
#include "core/runtime.hpp"

namespace tdg {
namespace {

/// Ids 1..n that the timing sample picks.
std::uint64_t sampled_ids(std::uint64_t n) {
  std::uint64_t k = 0;
  for (std::uint64_t id = 1; id <= n; ++id) k += timing_samples_task(id);
  return k;
}

TEST(MetricsBucket, BucketOfIsBitWidth) {
  EXPECT_EQ(MetricsRegistry::bucket_of(0), 0u);
  EXPECT_EQ(MetricsRegistry::bucket_of(1), 1u);
  EXPECT_EQ(MetricsRegistry::bucket_of(2), 2u);
  EXPECT_EQ(MetricsRegistry::bucket_of(3), 2u);
  EXPECT_EQ(MetricsRegistry::bucket_of(4), 3u);
  EXPECT_EQ(MetricsRegistry::bucket_of(7), 3u);
  EXPECT_EQ(MetricsRegistry::bucket_of(8), 4u);
  EXPECT_EQ(MetricsRegistry::bucket_of(1023), 10u);
  EXPECT_EQ(MetricsRegistry::bucket_of(1024), 11u);
}

TEST(MetricsBucket, WideValuesClampToLastBucket) {
  EXPECT_EQ(MetricsRegistry::bucket_of(UINT64_MAX),
            MetricsRegistry::kHistBuckets - 1);
  EXPECT_EQ(MetricsRegistry::bucket_of(1ULL << 62),
            MetricsRegistry::kHistBuckets - 1);
}

// Every power-of-two boundary: 2^k - 1 has bit width k and 2^k has k + 1,
// up to the last bucket, which absorbs everything wider.
TEST(MetricsBucket, PowerOfTwoBoundariesAndClamp) {
  constexpr std::uint32_t kLast = MetricsRegistry::kHistBuckets - 1;
  EXPECT_EQ(MetricsRegistry::bucket_of(0), 0u);
  EXPECT_EQ(MetricsRegistry::bucket_of(1), 1u);
  for (std::uint32_t k = 1; k <= 63; ++k) {
    const std::uint64_t p = std::uint64_t{1} << k;
    EXPECT_EQ(MetricsRegistry::bucket_of(p - 1), std::min(k, kLast)) << k;
    EXPECT_EQ(MetricsRegistry::bucket_of(p), std::min(k + 1, kLast)) << k;
  }
  EXPECT_EQ(MetricsRegistry::bucket_of(UINT64_MAX), kLast);
  // The clamp starts exactly at the last bucket's lower edge.
  EXPECT_EQ(MetricsRegistry::bucket_of((std::uint64_t{1} << (kLast - 1)) - 1),
            kLast - 1);
  EXPECT_EQ(MetricsRegistry::bucket_of(std::uint64_t{1} << (kLast - 1)),
            kLast);
}

TEST(MetricsRegistryTest, CounterSumsAcrossShards) {
  MetricsRegistry reg(4);
  const auto id = reg.counter("test.counter");
  reg.add(id, 1, 0);
  reg.add(id, 2, 1);
  reg.add(id, 3, 2);
  reg.add(id, 4, 3);
  reg.add(id, 5, 99);  // out-of-range shard hint folds in, never crashes
  EXPECT_EQ(reg.snapshot().value("test.counter"), 15u);
}

// Shards below num_shards() are single-writer (a plain load and store);
// every other hint shares one RMW shard. Both kinds written at once from
// their own threads must sum exactly, counters and gauges alike.
TEST(MetricsRegistryTest, OwnAndSharedShardsSumExactly) {
  constexpr unsigned kOwners = 4;
  constexpr unsigned kGuests = 4;
  constexpr int kAdds = 100'000;
  MetricsRegistry reg(kOwners);
  ASSERT_EQ(reg.num_shards(), kOwners);
  const auto c = reg.counter("test.counter");
  const auto g = reg.gauge("test.gauge");
  std::vector<std::thread> ts;
  for (unsigned t = 0; t < kOwners + kGuests; ++t) {
    // Guests pass hints past the owned shards, each a different one.
    const unsigned hint = t < kOwners ? t : kOwners + 7 * (t - kOwners);
    ts.emplace_back([&reg, c, g, hint] {
      for (int i = 0; i < kAdds; ++i) {
        reg.add(c, 1, hint);
        reg.gauge_add(g, i % 2 == 0 ? 2 : -1, hint);
      }
    });
  }
  for (auto& t : ts) t.join();
  const std::uint64_t total = std::uint64_t{kOwners + kGuests} * kAdds;
  EXPECT_EQ(reg.read(c), total);
  EXPECT_EQ(static_cast<std::int64_t>(reg.read(g)),
            static_cast<std::int64_t>(total / 2));
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.value("test.counter"), total);
  ASSERT_NE(snap.find("test.gauge"), nullptr);
  EXPECT_EQ(snap.find("test.gauge")->level,
            static_cast<std::int64_t>(total / 2));
  // Each owner's share is its own; the guests' share is on the shared
  // shard, num_shards().
  for (unsigned t = 0; t < kOwners; ++t) {
    EXPECT_EQ(reg.read(c, t), std::uint64_t{kAdds}) << "shard " << t;
  }
  EXPECT_EQ(reg.read(c, kOwners), std::uint64_t{kGuests} * kAdds);
}

TEST(MetricsRegistryTest, GaugeLevelsCancelAcrossShards) {
  MetricsRegistry reg(2);
  const auto id = reg.gauge("test.gauge");
  reg.gauge_add(id, +5, 0);
  reg.gauge_add(id, -3, 1);  // matched decrement on a different shard
  const MetricsSnapshot s = reg.snapshot();
  const auto* e = s.find("test.gauge");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->level, 2);
}

TEST(MetricsRegistryTest, HistogramCountSumBuckets) {
  MetricsRegistry reg(1);
  const auto id = reg.histogram("test.hist");
  reg.observe(id, 0);
  reg.observe(id, 3);
  reg.observe(id, 3);
  reg.observe(id, 1000);
  const MetricsSnapshot s = reg.snapshot();
  const auto* e = s.find("test.hist");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->kind, MetricKind::Histogram);
  EXPECT_EQ(e->value, 4u);  // sample count
  EXPECT_EQ(e->sum, 1006u);
  ASSERT_EQ(e->buckets.size(), MetricsRegistry::kHistBuckets);
  EXPECT_EQ(e->buckets[0], 1u);
  EXPECT_EQ(e->buckets[2], 2u);
  EXPECT_EQ(e->buckets[10], 1u);
  EXPECT_NEAR(e->mean(), 1006.0 / 4.0, 1e-9);
}

TEST(MetricsRegistryTest, HistogramPercentilesFromLog2Buckets) {
  MetricsRegistry reg(1);
  const auto id = reg.histogram("test.pctl");
  // 100 samples of 100 ns and 1 sample of 100000 ns: the tail lives in a
  // far bucket, the bulk in [64, 128).
  for (int i = 0; i < 100; ++i) reg.observe(id, 100);
  reg.observe(id, 100000);
  const MetricsSnapshot s = reg.snapshot();
  const auto* e = s.find("test.pctl");
  ASSERT_NE(e, nullptr);
  const double p50 = e->percentile(0.50);
  const double p95 = e->percentile(0.95);
  const double p99 = e->percentile(0.99);
  // Log2 buckets promise the right bucket: within [64, 128) for the bulk.
  EXPECT_GE(p50, 64.0);
  EXPECT_LE(p50, 128.0);
  EXPECT_GE(p95, 64.0);
  EXPECT_LE(p95, 128.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // p100 lands in the tail sample's bucket [65536, 131072).
  const double p100 = e->percentile(1.0);
  EXPECT_GE(p100, 65536.0);
  EXPECT_LE(p100, 131072.0);
  // All-zero histogram: percentiles are exactly zero (bucket 0).
  const auto zid = reg.histogram("test.pctl_zero");
  reg.observe(zid, 0);
  reg.observe(zid, 0);
  const MetricsSnapshot sz = reg.snapshot();
  EXPECT_EQ(sz.find("test.pctl_zero")->percentile(0.99), 0.0);
  // Empty histogram is defined and zero.
  const auto eid = reg.histogram("test.pctl_empty");
  (void)eid;
  EXPECT_EQ(reg.snapshot().find("test.pctl_empty")->percentile(0.5), 0.0);
}

TEST(MetricsSnapshotTest, WritersEmitPercentiles) {
  MetricsRegistry reg(1);
  const auto id = reg.histogram("lat.ns");
  for (int i = 0; i < 10; ++i) reg.observe(id, 1000);
  const MetricsSnapshot s = reg.snapshot();
  std::ostringstream text, json;
  s.write_text(text);
  s.write_json(json);
  EXPECT_NE(text.str().find("p50="), std::string::npos);
  EXPECT_NE(text.str().find("p95="), std::string::npos);
  EXPECT_NE(text.str().find("p99="), std::string::npos);
  EXPECT_NE(json.str().find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.str().find("\"p99\":"), std::string::npos);
}

TEST(MetricsRegistryTest, ReadSumsOneSlotAcrossShards) {
  MetricsRegistry reg(4);
  const auto id = reg.counter("read.me");
  reg.add(id, 5, 0);
  reg.add(id, 7, 3);
  EXPECT_EQ(reg.read(id), 12u);
  EXPECT_EQ(reg.read(MetricsRegistry::Id{}), 0u);
}

TEST(MetricsRegistryTest, RegistrationIsIdempotentByName) {
  MetricsRegistry reg(1);
  const auto a = reg.counter("shared.name");
  const auto b = reg.counter("shared.name");
  EXPECT_EQ(a.slot, b.slot);
  reg.add(a);
  reg.add(b);
  EXPECT_EQ(reg.snapshot().value("shared.name"), 2u);
  EXPECT_EQ(reg.num_metrics(), 1u);
}

TEST(MetricsRegistryTest, KindMismatchOnReregistrationThrows) {
  MetricsRegistry reg(1);
  reg.counter("test.metric");
  EXPECT_THROW(reg.histogram("test.metric"), UsageError);
}

TEST(MetricsRegistryTest, DisabledRegistryDropsWrites) {
  // Disabling drops histogram samples only; counters always count.
  for (const bool enabled : {false, true}) {
    MetricsRegistry reg(1, enabled);
    const auto id = reg.counter("test.counter");
    const auto hist = reg.histogram("test.hist");
    reg.add(id, 100);
    reg.observe(hist, 5);
    EXPECT_EQ(reg.snapshot().value("test.counter"), 100u);
    EXPECT_EQ(reg.snapshot().value("test.hist"), enabled ? 1u : 0u);
  }
}

TEST(MetricsRegistryTest, SampleReadsCountersAndGaugesByName) {
  MetricsRegistry reg(2);
  const auto counter = reg.counter("test.counter");
  const auto gauge = reg.gauge("test.gauge");
  reg.histogram("test.hist");
  reg.add(counter, 3, 0);
  reg.add(counter, 4, 1);
  reg.gauge_add(gauge, -2, 1);
  EXPECT_EQ(reg.read(counter, 1), 4u);
  const MetricsSample first = reg.sample();
  EXPECT_EQ(first.values.size(), 2u);  // histograms are not sampled
  EXPECT_EQ(first.value("test.counter"), 7);
  EXPECT_EQ(first.value("test.gauge"), -2);
  EXPECT_EQ(first.value("test.hist"), 0);
  // A later registration extends the names; earlier samples keep theirs.
  reg.counter("test.late");
  const MetricsSample second = reg.sample();
  EXPECT_EQ(second.names->size(), 3u);
  EXPECT_EQ(first.names->size(), 2u);
  EXPECT_EQ(second.value("test.counter"), 7);
}

TEST(MetricsRegistryTest, InvalidIdIsNoOp) {
  MetricsRegistry reg(1);
  MetricsRegistry::Id invalid;
  EXPECT_FALSE(invalid.valid());
  reg.add(invalid, 7);       // must not crash
  reg.gauge_add(invalid, 7);
  reg.observe(invalid, 7);
}

TEST(MetricsRegistryTest, ConcurrentRegistrationAndWrites) {
  // Registration while writers run: preallocated shards make this safe.
  MetricsRegistry reg(4);
  const auto hot = reg.counter("hot");
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&reg, hot, t] {
      for (int i = 0; i < 10000; ++i) {
        reg.add(hot, 1, static_cast<unsigned>(t));
      }
      reg.counter("late." + std::to_string(t));
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(reg.snapshot().value("hot"), 40000u);
  EXPECT_EQ(reg.num_metrics(), 5u);
}

TEST(MetricsSnapshotTest, DeltaSubtractsByName) {
  MetricsRegistry reg(1);
  const auto c = reg.counter("c");
  const auto g = reg.gauge("g");
  const auto h = reg.histogram("h");
  reg.add(c, 10);
  reg.gauge_add(g, 5);
  reg.observe(h, 8);
  const MetricsSnapshot older = reg.snapshot();
  reg.add(c, 7);
  reg.gauge_add(g, -2);
  reg.observe(h, 8);
  reg.observe(h, 0);
  const MetricsSnapshot d = MetricsSnapshot::delta(reg.snapshot(), older);
  EXPECT_EQ(d.value("c"), 7u);
  const auto* ge = d.find("g");
  ASSERT_NE(ge, nullptr);
  EXPECT_EQ(ge->level, -2);
  const auto* he = d.find("h");
  ASSERT_NE(he, nullptr);
  EXPECT_EQ(he->value, 2u);
  EXPECT_EQ(he->sum, 8u);
  EXPECT_EQ(he->buckets[4], 1u);
  EXPECT_EQ(he->buckets[0], 1u);
}

TEST(MetricsSnapshotTest, DeltaKeepsMetricsAbsentFromOlder) {
  MetricsRegistry reg(1);
  const auto a = reg.counter("a");
  reg.add(a, 3);
  const MetricsSnapshot older = reg.snapshot();
  const auto b = reg.counter("b");  // registered after the baseline
  reg.add(b, 9);
  const MetricsSnapshot d = MetricsSnapshot::delta(reg.snapshot(), older);
  EXPECT_EQ(d.value("a"), 0u);
  EXPECT_EQ(d.value("b"), 9u);
}

TEST(MetricsSnapshotTest, TextAndJsonWriters) {
  MetricsRegistry reg(1);
  reg.add(reg.counter("written"), 42);
  reg.counter("zero");
  const MetricsSnapshot s = reg.snapshot();

  std::ostringstream text_all, text_nz, json;
  s.write_text(text_all);
  s.write_text(text_nz, /*nonzero_only=*/true);
  s.write_json(json);
  EXPECT_NE(text_all.str().find("written"), std::string::npos);
  EXPECT_NE(text_all.str().find("zero"), std::string::npos);
  EXPECT_NE(text_nz.str().find("written"), std::string::npos);
  EXPECT_EQ(text_nz.str().find("zero"), std::string::npos);
  EXPECT_NE(json.str().find("\"written\""), std::string::npos);
  EXPECT_NE(json.str().find("42"), std::string::npos);
}

TEST(RuntimeMetricsTest, DiscoveryAndExecutionCountersMatchWorkload) {
  Runtime rt({.num_threads = 2});
  double a = 0, b = 0;
  for (int i = 0; i < 10; ++i) {
    rt.submit([&a] { a += 1; }, {Depend::out(&a)});
    rt.submit([&a, &b] { b += a; }, {Depend::in(&a), Depend::out(&b)});
  }
  rt.taskwait();
  const MetricsSnapshot s = rt.metrics().snapshot();
  EXPECT_EQ(s.value("discovery.tasks"), 20u);
  EXPECT_EQ(s.value("exec.tasks"), 20u);
  // Each in(&a) depends on the preceding out(&a); each out(&a) and out(&b)
  // serializes with its predecessors — at least the chain edges exist.
  // With a worker running concurrently, an edge to an already-finished
  // predecessor is pruned instead of created.
  EXPECT_GE(s.value("discovery.edges_created") +
                s.value("discovery.edges_pruned"),
            19u);
  EXPECT_EQ(s.value("sched.spawns"), 20u);
  const auto* depth = s.find("sched.ready_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->level, 0);  // all enqueues matched by dequeues
  // Only the timing sample's bodies are observed (ids 1..20, no redirect
  // nodes).
  const auto* body = s.find("exec.body_ns");
  ASSERT_NE(body, nullptr);
  EXPECT_EQ(body->value, sampled_ids(20));
}

// exec.body_ns observes the bodies of the timing sample — exactly the
// sampled ids — and every body when tracing.
TEST(RuntimeMetricsTest, BodyHistogramHoldsTheSample) {
  constexpr std::uint64_t kTasks = 1000;
  for (const bool trace : {false, true}) {
    Runtime rt({.num_threads = 2, .trace = trace});
    for (std::uint64_t i = 0; i < kTasks; ++i) rt.submit([] {}, {});
    rt.taskwait();
    const MetricsSnapshot s = rt.metrics().snapshot();
    const auto* body = s.find("exec.body_ns");
    const auto* queue = s.find("exec.queue_ns");
    ASSERT_NE(body, nullptr);
    ASSERT_NE(queue, nullptr);
    const std::uint64_t want = trace ? kTasks : sampled_ids(kTasks);
    EXPECT_EQ(body->value, want) << "trace " << trace;
    EXPECT_EQ(queue->value, want) << "trace " << trace;
    EXPECT_EQ(s.value("time.tasks"), kTasks);
    EXPECT_EQ(s.value("time.sampled_tasks"), want);
  }
}

// A replayed graph keeps its ids, so each replay draws its timing sample
// again with the iteration in the key: the observed bodies are the sampled
// instances, not one fixed subset of the tasks.
TEST(RuntimeMetricsTest, ReplayRedrawsTheSampleEachIteration) {
  constexpr std::uint64_t kTasks = 64;
  constexpr std::uint32_t kIterations = 6;
  Runtime rt({.num_threads = 2});
  PersistentRegion region(rt);
  double cell[kTasks] = {};
  for (std::uint32_t it = 0; it < kIterations; ++it) {
    region.begin_iteration();
    for (std::uint64_t i = 0; i < kTasks; ++i) {
      rt.submit([&cell, i] { cell[i] += 1; }, {Depend::inout(&cell[i])});
    }
    region.end_iteration();
  }
  std::uint64_t want = 0;
  std::uint64_t fixed = 0;  // what a sample fixed at discovery would hold
  for (std::uint32_t it = 0; it < kIterations; ++it) {
    for (std::uint64_t id = 1; id <= kTasks; ++id) {
      want += timing_samples_task(id, it);
      fixed += timing_samples_task(id);
    }
  }
  EXPECT_NE(want, fixed);
  const MetricsSnapshot s = rt.metrics().snapshot();
  EXPECT_EQ(s.value("exec.body_ns"), want);
  EXPECT_EQ(s.value("time.tasks"), kTasks * kIterations);
  EXPECT_EQ(cell[kTasks - 1], kIterations);
}

TEST(RuntimeMetricsTest, ConfigDisablesCollection) {
  Runtime rt({.num_threads = 1, .metrics = false});
  double x = 0;
  rt.submit([&x] { x = 1; }, {Depend::out(&x)});
  rt.taskwait();
  EXPECT_FALSE(rt.metrics().enabled());
  // Counters always count; only histograms are gated.
  EXPECT_EQ(rt.metrics().snapshot().value("discovery.tasks"), 1u);
  EXPECT_EQ(rt.metrics().snapshot().value("exec.body_ns"), 0u);
}

TEST(RuntimeMetricsTest, UnknownEnvValueLeavesConfigInCharge) {
  // A typo in TDG_METRICS warns once and must not force collection on.
  // The warning prints once per process and value, so each run of the
  // test (--gtest_repeat) uses a value of its own.
  static int run = 0;
  const std::string value = "bogus" + std::to_string(run++);
  setenv("TDG_METRICS", value.c_str(), 1);
  testing::internal::CaptureStderr();
  {
    Runtime rt({.num_threads = 1, .metrics = false});
    double x = 0;
    rt.submit([&x] { x = 1; }, {Depend::out(&x)});
    rt.taskwait();
    EXPECT_FALSE(rt.metrics().enabled());
    EXPECT_EQ(rt.metrics().snapshot().value("exec.body_ns"), 0u);
  }
  unsetenv("TDG_METRICS");
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "tdg: unknown TDG_METRICS value '" + value +
                "' (expected off|0|false|on|1|true|dump); ignored\n");
}

}  // namespace
}  // namespace tdg
