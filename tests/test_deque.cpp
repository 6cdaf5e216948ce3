// Chase-Lev deque: single-threaded protocol checks plus the owner/thief
// stress test the sanitizer CI runs under TSAN, and slab-arena churn tests
// (descriptor recycling, leak check via the task refcount paths).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/deque.hpp"
#include "core/slab.hpp"
#include "core/tdg.hpp"

namespace {

using tdg::ChaseLevDeque;
using tdg::Depend;
using tdg::Runtime;
using tdg::TaskArena;

TEST(ChaseLevDeque, OwnerPopsLifo) {
  ChaseLevDeque<int> dq;
  int a = 1, b = 2, c = 3;
  dq.push_bottom(&a);
  dq.push_bottom(&b);
  dq.push_bottom(&c);
  EXPECT_EQ(dq.approx_size(), 3u);
  EXPECT_EQ(dq.pop_bottom(), &c);
  EXPECT_EQ(dq.pop_bottom(), &b);
  EXPECT_EQ(dq.pop_bottom(), &a);
  EXPECT_EQ(dq.pop_bottom(), nullptr);
  EXPECT_TRUE(dq.approx_empty());
}

TEST(ChaseLevDeque, StealTakesFifoFromTop) {
  ChaseLevDeque<int> dq;
  int a = 1, b = 2, c = 3;
  dq.push_bottom(&a);
  dq.push_bottom(&b);
  dq.push_bottom(&c);
  EXPECT_EQ(dq.steal_top(), &a);
  EXPECT_EQ(dq.steal_top(), &b);
  // Owner and thief converge on the last element; here, sequentially, the
  // steal wins it cleanly.
  EXPECT_EQ(dq.steal_top(), &c);
  EXPECT_EQ(dq.steal_top(), nullptr);
}

TEST(ChaseLevDeque, GrowPreservesOrderAndContents) {
  ChaseLevDeque<int> dq(/*initial_capacity=*/8);
  constexpr int kItems = 1000;
  std::vector<int> items(kItems);
  for (int i = 0; i < kItems; ++i) dq.push_bottom(&items[i]);
  EXPECT_GE(dq.capacity(), static_cast<std::size_t>(kItems));
  for (int i = 0; i < kItems; ++i) {
    EXPECT_EQ(dq.steal_top(), &items[i]) << "index " << i;
  }
  EXPECT_EQ(dq.steal_top(), nullptr);
}

TEST(ChaseLevDeque, EmptyAfterInterleavedPushPop) {
  ChaseLevDeque<int> dq(/*initial_capacity=*/4);
  int x = 0;
  for (int round = 0; round < 100; ++round) {
    dq.push_bottom(&x);
    dq.push_bottom(&x);
    EXPECT_NE(dq.pop_bottom(), nullptr);
    EXPECT_NE(dq.steal_top(), nullptr);
    EXPECT_EQ(dq.pop_bottom(), nullptr);
  }
  EXPECT_TRUE(dq.approx_empty());
}

// The stress test the sanitizer script runs under TSAN and ASAN: one owner
// pushing and popping at the bottom while thieves hammer the top, with a
// deliberately tiny initial ring so the owner grows it mid-flight. Every
// element must be claimed exactly once across all participants.
TEST(ChaseLevDequeStress, ExactlyOnceUnderConcurrentSteals) {
  constexpr int kItems = 50000;
  const unsigned kThieves = 3;
  ChaseLevDeque<int> dq(/*initial_capacity=*/8);
  std::vector<int> items(kItems);
  std::vector<std::atomic<int>> claims(kItems);
  for (auto& c : claims) c.store(0, std::memory_order_relaxed);
  std::atomic<int> taken{0};
  std::atomic<bool> done{false};

  auto claim = [&](int* p) {
    const auto idx = static_cast<std::size_t>(p - items.data());
    ASSERT_LT(idx, items.size());
    EXPECT_EQ(claims[idx].fetch_add(1, std::memory_order_relaxed), 0)
        << "element " << idx << " claimed twice";
    taken.fetch_add(1, std::memory_order_relaxed);
  };

  std::vector<std::thread> thieves;
  for (unsigned i = 0; i < kThieves; ++i) {
    thieves.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        if (int* p = dq.steal_top()) {
          claim(p);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }

  // Owner: pushes everything, popping a few along the way to exercise the
  // bottom-side Dekker reservation against in-flight steals.
  for (int i = 0; i < kItems; ++i) {
    dq.push_bottom(&items[i]);
    if (i % 7 == 0) {
      if (int* p = dq.pop_bottom()) claim(p);
    }
  }
  while (taken.load(std::memory_order_relaxed) < kItems) {
    if (int* p = dq.pop_bottom()) {
      claim(p);
    } else {
      std::this_thread::yield();
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& th : thieves) th.join();

  EXPECT_EQ(taken.load(), kItems);
  for (int i = 0; i < kItems; ++i) {
    EXPECT_EQ(claims[i].load(), 1) << "element " << i;
  }
}

TEST(InjectQueue, FifoOrderSingleThread) {
  tdg::InjectQueue<int> q;
  int a = 1, b = 2, c = 3;
  EXPECT_TRUE(q.approx_empty());
  EXPECT_EQ(q.pop(), nullptr);
  q.push(&a);
  q.push(&b);
  q.push(&c);
  EXPECT_EQ(q.approx_size(), 3u);
  EXPECT_EQ(q.pop(), &a);
  EXPECT_EQ(q.pop(), &b);
  EXPECT_EQ(q.pop(), &c);
  EXPECT_EQ(q.pop(), nullptr);
  EXPECT_TRUE(q.approx_empty());
}

TEST(InjectQueue, HeadCursorCompactsLongStreams) {
  tdg::InjectQueue<int> q;
  std::vector<int> items(10000);
  // Interleave so the head cursor runs far ahead of the tail repeatedly,
  // crossing the compaction threshold many times.
  std::size_t popped = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    q.push(&items[i]);
    if (i % 3 != 0) {
      ASSERT_EQ(q.pop(), &items[popped]);
      ++popped;
    }
  }
  while (int* p = q.pop()) {
    ASSERT_EQ(p, &items[popped]);
    ++popped;
  }
  EXPECT_EQ(popped, items.size());
  EXPECT_TRUE(q.approx_empty());
}

// The satellite regression for the count-mirror ordering: the push must
// publish the element BEFORE the release increment, and the consumer's
// acquire read of a nonzero count must therefore always find the element
// under the lock — the empty-probe fast path may never lose a published
// inject. Multi-producer / multi-consumer, exactly once, run under TSAN
// and ASAN by scripts/ci_sanitize.sh.
TEST(InjectQueueStress, CountMirrorNeverLosesAPublishedInject) {
  constexpr int kPerProducer = 20000;
  constexpr unsigned kProducers = 4;
  constexpr unsigned kConsumers = 3;
  constexpr int kItems = kPerProducer * static_cast<int>(kProducers);
  tdg::InjectQueue<int> q;
  std::vector<int> items(kItems);
  std::vector<std::atomic<int>> claims(kItems);
  for (auto& c : claims) c.store(0, std::memory_order_relaxed);
  std::atomic<int> taken{0};

  std::vector<std::thread> consumers;
  for (unsigned i = 0; i < kConsumers; ++i) {
    consumers.emplace_back([&] {
      while (taken.load(std::memory_order_relaxed) < kItems) {
        if (int* p = q.pop()) {
          const auto idx = static_cast<std::size_t>(p - items.data());
          ASSERT_LT(idx, items.size());
          EXPECT_EQ(claims[idx].fetch_add(1, std::memory_order_relaxed), 0)
              << "element " << idx << " claimed twice";
          taken.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  std::vector<std::thread> producers;
  for (unsigned pi = 0; pi < kProducers; ++pi) {
    producers.emplace_back([&, pi] {
      for (int i = 0; i < kPerProducer; ++i) {
        q.push(&items[static_cast<std::size_t>(pi) * kPerProducer + i]);
      }
    });
  }
  for (auto& t : producers) t.join();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(taken.load(), kItems);
  for (int i = 0; i < kItems; ++i) {
    EXPECT_EQ(claims[i].load(), 1) << "element " << i;
  }
}

// Single consumer: once the mirror says non-empty, pop() must deliver —
// nobody else can take the element, so a nullptr here would mean the
// count was published before the element (the ordering bug this guards).
TEST(InjectQueueStress, NonEmptyProbeAlwaysDeliversToSoleConsumer) {
  constexpr int kItems = 50000;
  tdg::InjectQueue<int> q;
  std::vector<int> items(kItems);
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) q.push(&items[i]);
  });
  int got = 0;
  while (got < kItems) {
    if (!q.approx_empty()) {
      int* p = q.pop();
      ASSERT_NE(p, nullptr) << "non-empty probe lost a published inject";
      ASSERT_EQ(p, &items[got]);  // FIFO across the push stream
      ++got;
    }
  }
  producer.join();
  EXPECT_EQ(q.pop(), nullptr);
}

TEST(TaskArena, RecyclesThroughRemoteFreeStack) {
  TaskArena arena(/*block_bytes=*/48, /*nshards=*/2);
  TaskArena::Source src;
  void* a = arena.allocate(0, src);
  EXPECT_EQ(src, TaskArena::Source::NewChunk);
  void* b = arena.allocate(0, src);
  EXPECT_EQ(src, TaskArena::Source::Fresh);
  EXPECT_EQ(arena.live_blocks(), 2u);
  // Blocks are cache-line sized and aligned.
  EXPECT_EQ(arena.block_bytes() % tdg::kCacheLine, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % tdg::kCacheLine, 0u);

  arena.deallocate(a);
  arena.deallocate(b);
  EXPECT_EQ(arena.live_blocks(), 0u);

  // The freed blocks come back without carving new chunk memory: the
  // first allocate grabs the whole remote stack into the shard-local
  // freelist, the second is served straight from that freelist.
  const std::size_t chunks = arena.chunks_allocated();
  void* c = arena.allocate(0, src);
  EXPECT_EQ(src, TaskArena::Source::Recycled);
  void* d = arena.allocate(0, src);
  EXPECT_EQ(src, TaskArena::Source::Recycled);
  EXPECT_EQ(arena.chunks_allocated(), chunks);
  EXPECT_TRUE((c == a && d == b) || (c == b && d == a));
  arena.deallocate(c);
  arena.deallocate(d);
}

// The shard counts allocations and the remote stack counts frees, so
// blocks freed from several threads at once keep live_blocks() exact, and
// the owner recycles every one of them before it carves anything new.
TEST(TaskArena, FreesFromManyThreadsRecycleAndCount) {
  constexpr int kThreads = 4;
  constexpr int kBlocks = 1000;
  TaskArena arena(/*block_bytes=*/64, /*nshards=*/1);
  TaskArena::Source src;
  std::vector<void*> blocks(kBlocks);
  for (void*& b : blocks) b = arena.allocate(0, src);
  EXPECT_EQ(arena.live_blocks(), static_cast<std::size_t>(kBlocks));
  std::vector<std::thread> freers;
  for (int t = 0; t < kThreads; ++t) {
    freers.emplace_back([&arena, &blocks, t] {
      for (int i = t; i < kBlocks; i += kThreads) arena.deallocate(blocks[i]);
    });
  }
  for (auto& t : freers) t.join();
  EXPECT_EQ(arena.live_blocks(), 0u);
  const std::size_t chunks = arena.chunks_allocated();
  for (void*& b : blocks) {
    b = arena.allocate(0, src);
    EXPECT_EQ(src, TaskArena::Source::Recycled);
  }
  EXPECT_EQ(arena.chunks_allocated(), chunks);
  EXPECT_EQ(arena.live_blocks(), static_cast<std::size_t>(kBlocks));
  for (void* b : blocks) arena.deallocate(b);
  EXPECT_EQ(arena.live_blocks(), 0u);
}

// Churn: many waves of short-lived tasks through a live runtime. The leak
// check rides the existing refcount paths — every release() must hand the
// descriptor back to the arena, so live_blocks() returns to zero once the
// dependency scope (which holds last-writer references) is cleared.
TEST(SlabChurn, DescriptorCountReturnsToZero) {
  Runtime rt({.num_threads = 2});
  int cell = 0;
  for (int wave = 0; wave < 40; ++wave) {
    std::atomic<int> hits{0};
    for (int i = 0; i < 120; ++i) {
      rt.submit([&hits] { ++hits; }, {});
    }
    rt.submit([&cell] { ++cell; }, {Depend::inout(&cell)});
    rt.taskwait();
    ASSERT_EQ(hits.load(), 120);
  }
  EXPECT_EQ(cell, 40);
  rt.clear_dependency_scope();
  EXPECT_EQ(rt.task_arena().live_blocks(), 0u);
  // ~4800 descriptors flowed through, but recycling bounds the footprint
  // near the per-wave high-water mark, far below one block per task.
  EXPECT_LT(rt.task_arena().chunks_allocated() * TaskArena::kBlocksPerChunk,
            static_cast<std::size_t>(40 * 121));
  EXPECT_GT(rt.metrics().snapshot().value("alloc.slab_recycled"), 0u);
}

}  // namespace
