// Process-wide elastic worker pool shared by N logical runtimes (tenants).
//
// The paper's model is one runtime owning one thread team per rank. The
// production-service regime ("millions of users" sharing one process) needs
// the opposite split: many thin per-tenant front ends — discovery state,
// PTSG, verifier, metrics namespace, watchdog — submitting into ONE team of
// workers, so N tenants do not mean N x oversubscribed threads and idle
// cycles of one tenant absorb the bursts of another.
//
// Ownership split:
//   * WorkerPool owns the threads, the per-worker Chase-Lev deques, the
//     parking lot (mutex/cv; a parking worker and a publisher pair up
//     Dekker-style through `parked_` and the queues themselves, see
//     park_worker) and the task-descriptor slab arena (one allocation
//     shard per tenant, recycled cross-tenant through the arena's
//     remote-free stack).
//   * Runtime keeps its submission shard (a Chase-Lev deque whose bottom
//     only the producer touches), inject queue, deferred-retry queue,
//     throttle quota, metrics/profiler/watchdog and all discovery state.
//
// Work acquisition of a pool worker: own deque first (depth-first cache
// reuse), then a weighted-fair scan of the tenant table (the tenant with
// the minimum virtual runtime — served/weight — is preferred, so a starved
// tenant's shard is the first victim), then a randomized steal from sibling
// workers. Tenant producers never steal other tenants' work: a foreign task
// found while self-helping is rerouted to its owner's inject queue.
//
// A solo Runtime (no Config::pool) constructs a private pool inheriting its
// policy and thread count, and behaves exactly as the pre-pool runtime —
// same slots, same metrics attribution, same parking cadence.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/common.hpp"
#include "core/metrics.hpp"
#include "core/profiler.hpp"
#include "core/scheduler.hpp"
#include "core/slab.hpp"

namespace tdg {

class Runtime;
class Task;

/// Per-tenant scheduling options, supplied at attach time
/// (Runtime::Config::tenant).
struct TenantOptions {
  /// Weighted-fair share of pool worker time relative to other tenants.
  /// A tenant of weight 2 is served twice as often as a weight-1 tenant
  /// when both have backlog (min-vruntime victim selection).
  std::uint32_t weight = 1;
};

class WorkerPool {
 public:
  /// Sentinel: size the pool to hardware_concurrency - 1 workers.
  static constexpr unsigned kAutoWorkers = ~0u;
  /// Tenant-table capacity ceiling (the fair scan uses a 64-bit visited
  /// mask, and every worker keeps one served counter per slot).
  static constexpr unsigned kMaxTenantCap = 64;

  struct Config {
    /// Worker threads owned by the pool (the tenants' producer threads are
    /// additional). 0 is valid: tenants execute everything themselves.
    unsigned num_workers = kAutoWorkers;
    /// Pop policy of the pool-worker deques. Private (solo) pools inherit
    /// the owning runtime's policy.
    SchedulePolicy policy = SchedulePolicy::DepthFirstLifo;
    /// Tenant slots (attach beyond this fails). Clamped to kMaxTenantCap.
    unsigned max_tenants = 16;
  };

  // Delegation instead of a `= Config()` default argument: NSDMIs of a
  // nested aggregate are not usable in the enclosing class's default
  // arguments until the enclosing class is complete (mem-init lists are).
  WorkerPool() : WorkerPool(Config()) {}
  explicit WorkerPool(Config cfg);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  unsigned num_workers() const {
    return static_cast<unsigned>(workers_.size());
  }
  unsigned max_tenants() const {
    return static_cast<unsigned>(tenants_.size());
  }
  unsigned tenant_count() const {
    return tenant_count_.load(std::memory_order_relaxed);
  }
  /// Tasks a pool worker executed on behalf of tenant `id`, handed-off
  /// successors included (fairness accounting; tenant producers
  /// self-helping are not counted). Exact: the per-worker counts summed.
  std::uint64_t served(unsigned id) const;
  unsigned parked() const { return parked_.load(std::memory_order_relaxed); }
  /// The shared slab arena backing every tenant's task descriptors
  /// (leak checks: live_blocks() is zero once all tenants drained).
  const TaskArena& arena() const { return arena_; }

  /// Human-readable pool state (appended to every tenant's watchdog
  /// report, so a wedged tenant's diagnostic shows whether the pool —
  /// or just that tenant — is starved).
  void diagnostic(std::string& out) const;

 private:
  friend class Runtime;

  /// Private-pool constructor: `solo` is the single owning runtime, which
  /// restores the pre-pool exact metrics/profiler attribution for parks,
  /// wakeups, steal failures and idle time.
  WorkerPool(Config cfg, Runtime* solo);

  // --- tenant lifecycle (Runtime ctor/dtor) -------------------------------
  unsigned attach(Runtime* rt, const TenantOptions& opts);
  void detach(unsigned id);

  // --- work publication (Runtime::enqueue_ready / end_batch) --------------
  /// Push to the calling pool worker's own deque (requires the calling
  /// thread to be a worker of this pool — see on_pool_worker()).
  void push_local(Task* t);
  /// True when the calling thread is one of this pool's workers.
  bool on_pool_worker() const { return tls_pool == this; }
  /// Calling worker's slot (valid only when on_pool_worker()).
  static unsigned calling_slot() { return tls_pool_slot; }
  /// Wake up to `n` parked workers after publishing ready work (a push to
  /// a deque or an inject queue): a seq_cst fence, then a load of
  /// parked_ — the publisher's half of the pairing in park_worker. Wakeups
  /// are attributed to `waker`'s metrics namespace (may be null).
  void wake_workers(std::size_t n, Runtime* waker);

  // --- execution (pool worker side) ---------------------------------------
  /// Find and run one task on worker `slot`, its running mark `mark`.
  bool try_execute_one(unsigned slot, RunningMark& mark);
  /// Weighted-fair tenant scan: probe tenants in ascending vruntime order
  /// (shard steal, then inject, then due deferred retries). On success the
  /// worker's hazard names the owner (see pin), which stays safe to run:
  /// a pending task keeps its runtime alive.
  Task* take_tenant_work(unsigned slot, Runtime*& owner, bool& stole,
                         bool& deferred);
  /// Probe one pinned tenant for work.
  static Task* poll_tenant(Runtime* r, bool& stole, bool& deferred);
  /// Pin protocol (Dekker with detach): publish tenant `id` in worker
  /// `slot`'s hazard (seq_cst; skipped when it already names `id`), then
  /// load the tenant's runtime (seq_cst). A non-null result stays alive
  /// until the hazard changes: detach stores nullptr first and then waits
  /// until no hazard names the slot.
  Runtime* pin(unsigned slot, unsigned id);
  /// Name `id` in the hazard without re-loading rt: for a task already
  /// acquired, whose pending state keeps its owner from detaching.
  void hold(unsigned slot, unsigned id);
  /// Clear the hazard (release: orders every read made under it before a
  /// detacher's teardown).
  void unpin(unsigned slot);
  /// True while some worker's hazard names tenant slot `id`.
  bool hazard_on(unsigned id) const;
  /// Producer-side steal from the pool worker deques. Only tasks owned by
  /// `self` are returned; foreign tasks are rerouted to their owner's
  /// inject queue (bounded displacement, preserves tenant isolation).
  Task* steal_for(Runtime* self, std::atomic<std::uint64_t>& rng);
  /// Charge one task run by worker `slot` to tenant `id`: the worker's own
  /// served counter, plus the tenant's vruntime while two or more tenants
  /// are attached (with one there is nothing to arbitrate).
  void note_served(unsigned slot, unsigned id);
  void worker_loop(unsigned slot);
  /// Sleep on the parking cv unless work is visible. Dekker pairing with
  /// wake_workers: the worker increments parked_ and runs a seq_cst
  /// fence, then scans every worker deque and each attached tenant's shard
  /// and inject queue; a publisher pushes, fences, then loads parked_. At
  /// least one side sees the other, so either the worker finds the task or
  /// the publisher notifies.
  void park_worker(unsigned slot);
  /// Run every attached tenant's polling hook (MPI progress etc.) from an
  /// idle worker.
  void poll_tenants(unsigned slot);
  static unsigned rng_next(std::atomic<std::uint64_t>& state, unsigned n);
  /// Fold a detaching tenant's final counters into the pool aggregate
  /// (TDG_METRICS=dump prints it at pool teardown, keeping aggregate
  /// totals available next to the per-tenant tagged sections).
  void fold_aggregate(const MetricsSnapshot& snap);

  struct alignas(kCacheLine) TenantSlot {
    /// Published seq_cst at attach; see pin() for the detach protocol.
    std::atomic<Runtime*> rt{nullptr};
    /// Virtual runtime, fixed-point: += kVrUnit / weight per served task
    /// while two or more tenants are attached.
    std::atomic<std::uint64_t> vruntime{0};
    /// Relaxed: a stale read only mischarges a single serve.
    std::atomic<std::uint32_t> weight{1};
    std::uint64_t wd_token = 0;  // pool diagnostic in the tenant's watchdog
  };
  static constexpr std::uint64_t kVrUnit = 1u << 16;
  static constexpr unsigned kNoTenant = ~0u;

  /// Per-worker state, on the worker's own lines: only the worker writes
  /// it (attach zeroes a free slot's counters); detach and served() read.
  struct alignas(kCacheLine) WorkerState {
    /// The tenant slot this worker is probing or executing, kNoTenant when
    /// neither — the worker's single pin (see pin()).
    std::atomic<unsigned> hazard{kNoTenant};
    /// Xorshift state for randomized victim selection.
    std::atomic<std::uint64_t> rng{0};
    /// Tasks this worker ran per tenant slot (see served()).
    std::atomic<std::uint64_t> served[kMaxTenantCap] = {};
  };

  Config cfg_;
  /// Non-null for private pools: the one runtime that owns us, enabling
  /// the exact pre-pool attribution of parks/idle/steal-failures.
  Runtime* const solo_;
  /// TDG_METRICS=dump on a shared pool: print the aggregate at teardown.
  const bool metrics_dump_;
  /// Shared descriptor arena, one allocation shard per tenant slot (the
  /// producer is the only allocator of its tenant). Freed blocks recycle
  /// across tenants through the arena's remote-free stack.
  TaskArena arena_;
  std::vector<std::unique_ptr<WorkDeque>> deques_;  // one per worker
  std::vector<WorkerState> wstate_;                 // one per worker
  std::vector<TenantSlot> tenants_;
  std::atomic<unsigned> tenant_count_{0};
  /// Scan bound: one past the highest slot ever attached.
  std::atomic<unsigned> tenant_high_{0};
  SpinLock tenants_lock_;
  /// Count of attached tenants with timing enabled: a shared pool's
  /// workers only read a probe's start when somebody consumes it.
  std::atomic<int> timed_tenants_{0};

  std::vector<std::thread> workers_;

  // Parking: spin-then-yield-then-park, same ladder as the pre-pool
  // runtime. parked_ is loaded after a fence on every enqueue (see
  // park_worker).
  std::mutex park_mu_;
  std::condition_variable park_cv_;
  std::atomic<unsigned> parked_{0};
  std::atomic<bool> shutdown_{false};

  /// Aggregate of detached tenants' final metric snapshots (printed at
  /// teardown under metrics_dump_).
  mutable SpinLock agg_lock_;
  MetricsSnapshot aggregate_;
  bool aggregate_any_ = false;

  static thread_local WorkerPool* tls_pool;
  static thread_local unsigned tls_pool_slot;
};

}  // namespace tdg
