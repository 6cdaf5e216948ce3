// Slab / freelist arena for task descriptors, replacing the global-heap
// `new`/`delete` per discovered task. Discovery is sequential (single
// producer), so allocation is effectively single-threaded, but tasks are
// *freed* by whichever thread drops the last reference — usually a worker
// completing the task. The arena therefore splits the two paths, and the
// allocating owner writes no line the freers write on every free:
//
//  * allocate(shard): owner-local freelist, then a wait-free grab of the
//    whole remote-free stack, then a bump pointer into the shard's current
//    slab chunk, then a new chunk (the only path that takes a lock, once
//    per kBlocksPerChunk tasks). The shard counts its allocations itself,
//    with a plain store.
//  * deallocate(p): a single CAS push onto a Treiber stack from any
//    thread, which counts the free on the stack's own line. Consumers
//    never pop individual nodes — allocate() exchanges the whole stack
//    head with nullptr — so the classic ABA problem cannot arise.
//
// Blocks are fixed-size, cache-line aligned and recycled indefinitely.
// When an arena is destroyed (after the owning runtime has drained, so no
// task can outlive it), its chunks are handed to a process-global bounded
// ChunkCache rather than freed: iterative workloads that construct and
// tear down runtimes (benchmarks, per-phase solvers) would otherwise let
// the allocator return tens of megabytes of chunk memory to the OS and
// minor-fault every page back in on the next warm-up — a cost that lands
// inside the measured region and dwarfs the allocator work it replaces.
// PTSG replay is untouched by design: replayed iterations allocate no
// descriptors at all.
//
// Ownership: the task arena belongs to the WorkerPool, not to individual
// runtimes. Each tenant allocates from its own shard (shard = tenant id),
// so discovery stays single-threaded per shard even with many tenants, and
// per-tenant accounting falls out of the shard split. The pool outlives
// every attached tenant (Runtime::~Runtime detaches before the pool dies),
// which is what lets a tenant's in-flight tasks be freed by pool workers
// after the tenant's own front end has been torn down to the drain point.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "core/common.hpp"

namespace tdg {

/// Process-global bounded cache of arena chunks, keyed by chunk byte size.
/// Arenas push their chunks here on destruction and pull from here before
/// asking the system allocator, so chunk memory — and, critically, its
/// already-faulted pages — survives runtime teardown. The cache is cold
/// path only (one touch per kBlocksPerChunk block allocations) and guarded
/// by a spin lock. Retention is capped at kDefaultCapBytes; chunks over
/// the cap are freed.
class ChunkCache {
 public:
  static constexpr std::size_t kDefaultCapBytes = 64u << 20;

  /// Pop a cached chunk of exactly `bytes`, or nullptr if none.
  static void* take(std::size_t bytes) {
    Impl& im = impl();
    SpinGuard g(im.lock);
    for (std::size_t i = im.items.size(); i-- > 0;) {
      if (im.items[i].bytes == bytes) {
        void* p = im.items[i].ptr;
        im.cached_bytes -= bytes;
        im.items[i] = im.items.back();
        im.items.pop_back();
        return p;
      }
    }
    return nullptr;
  }

  /// Retire a chunk: cached if under the cap, otherwise freed.
  static void give(void* p, std::size_t bytes) {
    Impl& im = impl();
    {
      SpinGuard g(im.lock);
      if (im.cached_bytes + bytes <= kDefaultCapBytes) {
        im.items.push_back(Item{p, bytes});
        im.cached_bytes += bytes;
        return;
      }
    }
    ::operator delete(p, std::align_val_t{kCacheLine});
  }

  /// Bytes currently retained (observability / tests).
  static std::size_t cached() {
    Impl& im = impl();
    SpinGuard g(im.lock);
    return im.cached_bytes;
  }

  /// Free everything retained (tests; apps that want the memory back).
  static void trim() {
    Impl& im = impl();
    std::vector<Item> drop;
    {
      SpinGuard g(im.lock);
      drop.swap(im.items);
      im.cached_bytes = 0;
    }
    for (const Item& it : drop) {
      ::operator delete(it.ptr, std::align_val_t{kCacheLine});
    }
  }

 private:
  struct Item {
    void* ptr;
    std::size_t bytes;
  };
  struct Impl {
    SpinLock lock;
    std::vector<Item> items;
    std::size_t cached_bytes = 0;
  };
  /// Intentionally never destroyed: arenas may retire chunks during static
  /// destruction, and the live pointer keeps retained chunks reachable
  /// (leak checkers report them as still-referenced, not leaked).
  static Impl& impl() {
    static Impl* im = new Impl();
    return *im;
  }
};

class TaskArena {
 public:
  /// Blocks handed out per chunk carve. 256 task descriptors of 4 cache
  /// lines (256 bytes) make a 64 KiB chunk: big enough to amortize the
  /// lock, small enough that a tiny runtime (tests, single taskwait) does
  /// not balloon.
  static constexpr std::size_t kBlocksPerChunk = 256;

  /// Where an allocation came from (drives the alloc.slab_* counters).
  enum class Source : std::uint8_t {
    Recycled,  ///< served from a freelist (local or grabbed remote stack)
    Fresh,     ///< bump-carved from the shard's current chunk
    NewChunk,  ///< fresh, and a new chunk had to be allocated first
  };

  /// `block_bytes` is the fixed block size (rounded up to a cache line);
  /// `nshards` is the number of allocating owners (one per tenant).
  TaskArena(std::size_t block_bytes, unsigned nshards)
      : block_bytes_((block_bytes + kCacheLine - 1) & ~(kCacheLine - 1)),
        shards_(nshards > 0 ? nshards : 1) {}

  ~TaskArena() {
    const std::size_t bytes = block_bytes_ * kBlocksPerChunk;
    for (void* c : chunks_) {
      ChunkCache::give(c, bytes);
    }
  }
  TaskArena(const TaskArena&) = delete;
  TaskArena& operator=(const TaskArena&) = delete;

  /// Allocate one block. Owner-sharded: concurrent calls with the same
  /// `shard` are not allowed (the runtime's submission path is already
  /// single-producer).
  void* allocate(unsigned shard, Source& src) {
    Shard& s = shards_[shard < shards_.size() ? shard : 0];
    FreeNode* n = s.local;
    if (n == nullptr) {
      // Grab the entire remote-free stack in one exchange (wait-free).
      n = remote_.head.exchange(nullptr, std::memory_order_acquire);
    }
    // Only the owner writes the count: load + store, no RMW.
    s.allocated.store(s.allocated.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
    if (n != nullptr) {
      s.local = n->next;
      src = Source::Recycled;
      return n;
    }
    src = Source::Fresh;
    if (s.bump == s.bump_end) {
      carve_chunk(s);
      src = Source::NewChunk;
    }
    void* p = s.bump;
    s.bump += block_bytes_;
    return p;
  }

  /// Return one block (any thread, lock-free).
  void deallocate(void* p) noexcept {
    FreeNode* n = static_cast<FreeNode*>(p);
    FreeNode* head = remote_.head.load(std::memory_order_relaxed);
    do {
      n->next = head;
    } while (!remote_.head.compare_exchange_weak(head, n,
                                                 std::memory_order_release,
                                                 std::memory_order_relaxed));
    // Release: the block's allocation happens-before a reader that sees
    // this free (see live_blocks).
    remote_.freed.fetch_add(1, std::memory_order_release);
  }

  std::size_t block_bytes() const { return block_bytes_; }
  unsigned num_shards() const {
    return static_cast<unsigned>(shards_.size());
  }
  /// Blocks currently handed out (allocated minus freed) — the leak check
  /// used by the churn test: zero once every task descriptor was released.
  /// A racy sum while threads allocate and free; exact at quiescence.
  std::size_t live_blocks() const {
    // Frees first: any allocation a counted free undid is then counted
    // too, so the difference never goes below the true count.
    const std::size_t freed = remote_.freed.load(std::memory_order_acquire);
    std::size_t allocated = 0;
    for (const Shard& s : shards_) {
      allocated += s.allocated.load(std::memory_order_relaxed);
    }
    return allocated > freed ? allocated - freed : 0;
  }
  /// Chunks carved so far (monotonic; memory high-water mark).
  std::size_t chunks_allocated() const {
    SpinGuard g(chunks_lock_);
    return chunks_.size();
  }
  /// Chunks carved on behalf of one shard — per-tenant memory attribution
  /// under a shared pool (shard = tenant id). Racy-by-design read of the
  /// owner-thread counter; monitoring only.
  std::size_t chunks_carved(unsigned shard) const {
    return shard < shards_.size() ? shards_[shard].carved : 0;
  }
  /// Blocks a shard ever carved fresh (recycles not included): an upper
  /// bound on the tenant's descriptor footprint.
  std::size_t blocks_carved(unsigned shard) const {
    return chunks_carved(shard) * kBlocksPerChunk;
  }

 private:
  struct FreeNode {
    FreeNode* next;
  };
  struct alignas(kCacheLine) Shard {
    FreeNode* local = nullptr;        // owner-thread only
    unsigned char* bump = nullptr;    // owner-thread only
    unsigned char* bump_end = nullptr;
    std::size_t carved = 0;           // chunks this shard triggered
    std::atomic<std::size_t> allocated{0};  // written by the owner only
  };
  /// The remote-free stack and the count of frees, on one line: a free
  /// writes only this line.
  struct alignas(kCacheLine) FreeStack {
    std::atomic<FreeNode*> head{nullptr};
    std::atomic<std::size_t> freed{0};
  };

  void carve_chunk(Shard& s) {
    const std::size_t bytes = block_bytes_ * kBlocksPerChunk;
    void* chunk = ChunkCache::take(bytes);
    if (chunk == nullptr) {
      chunk = ::operator new(bytes, std::align_val_t{kCacheLine});
    }
    {
      SpinGuard g(chunks_lock_);
      chunks_.push_back(chunk);
    }
    s.bump = static_cast<unsigned char*>(chunk);
    s.bump_end = s.bump + bytes;
    ++s.carved;
  }

  const std::size_t block_bytes_;
  FreeStack remote_;
  std::vector<Shard> shards_;
  mutable SpinLock chunks_lock_;
  std::vector<void*> chunks_;
};

}  // namespace tdg
