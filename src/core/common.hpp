// Common low-level utilities shared by the tdg runtime.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <thread>
#include <type_traits>

namespace tdg {

/// Monotonic wall-clock in seconds (equivalent of omp_get_wtime).
inline double now_seconds() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

/// Monotonic wall-clock in nanoseconds.
inline std::uint64_t now_ns() {
  using namespace std::chrono;
  return static_cast<std::uint64_t>(
      duration_cast<nanoseconds>(steady_clock::now().time_since_epoch())
          .count());
}

/// splitmix64 finalizer: bijective and well mixed, so `mix64(id) % n == 0`
/// picks a uniform pseudo-random one-in-n subset of ids that is a pure
/// function of the id.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Test-and-set spin lock. Used to guard tiny critical sections
/// (per-task successor lists); never held across user code.
class SpinLock {
 public:
  /// Spins are bounded before yielding the core: when threads outnumber
  /// cores (producer + worker on one CPU), a holder preempted inside the
  /// critical section would otherwise cost the spinner its entire
  /// scheduling quantum — milliseconds burned guarding a nanosecond
  /// section, the dominant term of discovery throughput on small machines.
  static constexpr int kSpinsBeforeYield = 128;

  void lock() noexcept {
    int spins = 0;
    while (flag_.test_and_set(std::memory_order_acquire)) {
      while (flag_.test(std::memory_order_relaxed)) {
        if (++spins < kSpinsBeforeYield) {
          cpu_relax();
        } else {
          std::this_thread::yield();
          spins = 0;
        }
      }
    }
  }
  bool try_lock() noexcept {
    return !flag_.test_and_set(std::memory_order_acquire);
  }
  void unlock() noexcept { flag_.clear(std::memory_order_release); }

  static void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#else
    std::this_thread::yield();
#endif
  }

 private:
  std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
};

/// RAII guard for SpinLock.
class SpinGuard {
 public:
  explicit SpinGuard(SpinLock& l) noexcept : lock_(l) { lock_.lock(); }
  ~SpinGuard() { lock_.unlock(); }
  SpinGuard(const SpinGuard&) = delete;
  SpinGuard& operator=(const SpinGuard&) = delete;

 private:
  SpinLock& lock_;
};

/// Spin-then-yield-then-sleep ladder for blocking waits that must keep
/// polling (taskwait drains, throttling stalls, worker idle loops). The
/// first stage burns a few pause instructions (a task usually shows up
/// within nanoseconds on a busy graph), the second yields the core, and
/// the tail sleeps in exponentially-growing quanta capped at kMaxSleepUs —
/// bounded so MPI polling hooks and deferred-retry deadlines are still
/// serviced promptly. Workers use should_park() to switch from the ladder
/// to condition-variable parking instead of the sleep tail.
class Backoff {
 public:
  static constexpr int kSpin = 32;       ///< stage 1: cpu_relax probes
  static constexpr int kYield = 8;       ///< stage 2: sched_yield probes
  static constexpr std::int64_t kMaxSleepUs = 64;  ///< stage 3 cap

  /// One failed probe: escalate and stall accordingly.
  void pause() noexcept {
    ++n_;
    if (n_ <= kSpin) {
      SpinLock::cpu_relax();
    } else if (n_ <= kSpin + kYield) {
      std::this_thread::yield();
    } else {
      const int over = n_ - kSpin - kYield;
      const std::int64_t us =
          over < 7 ? (std::int64_t{1} << over) : kMaxSleepUs;
      std::this_thread::sleep_for(std::chrono::microseconds(us));
    }
  }
  /// True once the spin and yield stages are exhausted (worker loops park
  /// on a condition variable instead of entering the sleep tail).
  bool should_park() const noexcept { return n_ >= kSpin + kYield; }
  /// Work was found: restart the ladder from the spin stage.
  void reset() noexcept { n_ = 0; }

 private:
  int n_ = 0;
};

/// Full store->load fence: the publisher's half of the Dekker pairing with
/// a parking worker (see WorkerPool::park_worker). ThreadSanitizer does not
/// model standalone fences (GCC warns, -Wtsan) but still executes one; the
/// pairing orders no data, only a worker's decision to sleep.
inline void store_load_fence() noexcept {
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wtsan"
#endif
  std::atomic_thread_fence(std::memory_order_seq_cst);
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
}

/// Fatal invariant failure. TDG_CHECK is reserved for conditions whose
/// violation means runtime state is corrupt (protocol bugs, wedged
/// refcounts): recovery is impossible, so we abort without unwinding.
/// Recoverable API misuse uses TDG_REQUIRE (core/error.hpp), which throws
/// tdg::UsageError and leaves the runtime usable.
[[noreturn]] inline void fatal(const char* file, int line, const char* msg) {
  std::fprintf(stderr, "tdg fatal: %s:%d: %s\n", file, line, msg);
  std::abort();
}

#define TDG_CHECK(cond, msg)                              \
  do {                                                    \
    if (!(cond)) ::tdg::fatal(__FILE__, __LINE__, (msg)); \
  } while (0)

#ifdef NDEBUG
#define TDG_DCHECK(cond, msg) ((void)0)
#else
#define TDG_DCHECK(cond, msg) TDG_CHECK(cond, msg)
#endif

/// Cache-line size used for padding hot atomics.
inline constexpr std::size_t kCacheLine = 64;

/// Inline-first vector for the discovery/graph hot paths: the first N
/// elements live inside the object (no heap traffic for the common case —
/// a task's few successors, an address's last writer and readers), and
/// larger sets spill to a geometrically-grown heap buffer. Restricted to
/// trivially-copyable element types so growth is a memcpy, destruction is
/// free, and push_back never throws between a retain() and its recording
/// (the refcount discipline of DependencyMap/Task depends on that).
///
/// Layout: the heap pointer and the inline storage share a union, with
/// `cap_ > N` discriminating — 8 bytes of header instead of a separate
/// data pointer. A Task's successor list (N = 4) is 40 bytes, which is
/// what lets it share one cache line with the other discovery fields of
/// the 256-byte descriptor (see core/task.hpp).
template <class T, std::size_t N>
class small_vector {
  static_assert(std::is_trivially_copyable_v<T>,
                "small_vector is restricted to trivially-copyable types");
  static_assert(N > 0, "small_vector needs a nonzero inline capacity");

 public:
  static constexpr std::size_t kInlineCapacity = N;

  small_vector() noexcept {}
  small_vector(const small_vector& o) { assign(o); }
  small_vector(small_vector&& o) noexcept { steal(std::move(o)); }
  small_vector& operator=(const small_vector& o) {
    if (this != &o) {
      size_ = 0;
      assign(o);
    }
    return *this;
  }
  small_vector& operator=(small_vector&& o) noexcept {
    if (this != &o) {
      release_heap();
      steal(std::move(o));
    }
    return *this;
  }
  ~small_vector() { release_heap(); }

  void push_back(const T& v) {
    if (size_ == cap_) grow(cap_ * 2);
    data()[size_++] = v;
  }
  /// Drop the elements but keep the current (possibly spilled) capacity:
  /// access-history entries churn through clear/refill cycles, and
  /// re-spilling every generation would defeat the inline layout.
  void clear() noexcept { size_ = 0; }

  T* begin() noexcept { return data(); }
  T* end() noexcept { return data() + size_; }
  const T* begin() const noexcept { return data(); }
  const T* end() const noexcept { return data() + size_; }
  T& operator[](std::size_t i) noexcept { return data()[i]; }
  const T& operator[](std::size_t i) const noexcept { return data()[i]; }
  T* data() noexcept { return spilled() ? heap_ : inline_ptr(); }
  const T* data() const noexcept {
    return spilled() ? heap_ : inline_ptr();
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t capacity() const noexcept { return cap_; }
  /// True once the elements live on the heap instead of inline storage.
  bool spilled() const noexcept { return cap_ > N; }

  void swap(small_vector& o) noexcept {
    small_vector tmp(std::move(o));
    o.steal_after_release(std::move(*this));
    steal_after_release(std::move(tmp));
  }
  friend void swap(small_vector& a, small_vector& b) noexcept { a.swap(b); }

 private:
  T* inline_ptr() noexcept { return reinterpret_cast<T*>(inline_); }
  const T* inline_ptr() const noexcept {
    return reinterpret_cast<const T*>(inline_);
  }

  void grow(std::size_t new_cap) {
    T* heap = static_cast<T*>(
        ::operator new(new_cap * sizeof(T), std::align_val_t{alignof(T)}));
    std::memcpy(static_cast<void*>(heap), data(), size_ * sizeof(T));
    release_heap();
    heap_ = heap;
    cap_ = static_cast<std::uint32_t>(new_cap);
  }

  void assign(const small_vector& o) {
    if (o.size_ > cap_) grow(o.size_);
    std::memcpy(static_cast<void*>(data()), o.data(), o.size_ * sizeof(T));
    size_ = o.size_;
  }

  /// Take o's contents; own heap buffer (if any) must already be released.
  void steal(small_vector&& o) noexcept {
    if (o.spilled()) {
      heap_ = o.heap_;
      cap_ = o.cap_;
      size_ = o.size_;
      o.cap_ = N;
    } else {
      cap_ = N;
      size_ = o.size_;
      // Whole-buffer copy, not o.size_ * sizeof(T): the fixed size lets
      // the compiler inline the copy as a few wide moves instead of a
      // libc memcpy call — this runs on every task completion (the
      // successor-list snapshot is a move).
      std::memcpy(inline_, o.inline_, sizeof(inline_));
    }
    o.size_ = 0;
  }
  void steal_after_release(small_vector&& o) noexcept {
    release_heap();
    steal(std::move(o));
  }

  void release_heap() noexcept {
    if (spilled()) {
      ::operator delete(heap_, std::align_val_t{alignof(T)});
      cap_ = N;
    }
  }

  std::uint32_t size_ = 0;
  std::uint32_t cap_ = N;
  union {
    T* heap_;
    alignas(T) unsigned char inline_[N * sizeof(T)];
  };
};

}  // namespace tdg
