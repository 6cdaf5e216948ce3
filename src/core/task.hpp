// Task descriptor: body storage, readiness refcount, successor edges,
// detach events and persistent-graph bookkeeping.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <exception>
#include <new>
#include <type_traits>
#include <utility>

#include "core/common.hpp"
#include "core/depend_types.hpp"
#include "core/slab.hpp"

namespace tdg {

class Task;
class Runtime;

/// Lifecycle states of a task (profiling / assertions).
enum class TaskState : std::uint8_t {
  Created,    ///< discovered, predecessors outstanding
  Ready,      ///< all predecessors satisfied, queued
  Running,    ///< body executing on some thread
  Detached,   ///< body done, waiting on a detach event
  Finished,   ///< complete; successors released
  Failed,     ///< body threw after exhausting retries; successors cancelled
  Cancelled,  ///< a transitive predecessor failed; body never ran
};

/// Detach event (OpenMP `detach(event)` clause). A task carrying an event
/// only completes once both its body has returned and the event has been
/// fulfilled — e.g. by an MPI request completion callback.
class Event {
 public:
  /// Fulfill the event. Idempotent; safe from any thread. If the owning
  /// task body has already returned, this triggers task completion.
  void fulfill();

  /// Fail the event: the owning task is marked Failed carrying `err`, its
  /// dependents are cancelled through graph poisoning, and the graph keeps
  /// draining. Used when the operation a detach waits on can never
  /// complete (e.g. a receive from a dead rank). Idempotent with respect
  /// to fulfill(): whichever happens first wins.
  void poison(std::exception_ptr err);

  bool fulfilled() const noexcept {
    return fulfilled_.load(std::memory_order_acquire);
  }

  /// Label / id of the owning task (watchdog diagnostics; valid once the
  /// event has been attached via TaskOpts::detach). Labels are static
  /// strings, so the snapshot stays readable for the event's lifetime.
  const char* task_label() const noexcept { return task_label_; }
  std::uint64_t task_id() const noexcept { return task_id_; }
  /// TaskOpts::idempotent of the owning task (recovery contract probe).
  bool task_idempotent() const noexcept { return task_idempotent_; }

 private:
  friend class Runtime;
  friend class Task;
  friend class PersistentRegion;
  std::atomic<bool> fulfilled_{false};
  Task* task_ = nullptr;     // owning task, set at submit
  Runtime* runtime_ = nullptr;
  const char* task_label_ = "";  // diagnostic snapshot, set at submit
  std::uint64_t task_id_ = 0;
  bool task_idempotent_ = false;  // snapshot of TaskOpts::idempotent
};

/// Type-erased task body with inline small-buffer storage.
///
/// Persistent-graph replay (optimization (p) of the paper) overwrites the
/// stored capture with the bytes of a freshly-built callable of the same
/// type: a plain memcpy for trivially-copyable captures, the type's copy
/// assignment otherwise. This mirrors the paper's "task initialization cost
/// reduced to a single memcpy on firstprivate data".
class TaskBody {
 public:
  static constexpr std::size_t kInlineBytes = 192;

  TaskBody() = default;
  TaskBody(const TaskBody&) = delete;
  TaskBody& operator=(const TaskBody&) = delete;

  ~TaskBody() { reset(); }

  template <class F>
  void emplace(F&& fn) {
    using Fn = std::decay_t<F>;
    reset();
    void* where;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      where = inline_;
    } else {
      heap_ = ::operator new(sizeof(Fn), std::align_val_t{alignof(Fn)});
      where = heap_;
      align_ = alignof(Fn);
    }
    ::new (where) Fn(std::forward<F>(fn));
    size_ = sizeof(Fn);
    invoke_ = [](void* p) { (*static_cast<Fn*>(p))(); };
    destroy_ = [](void* p) { static_cast<Fn*>(p)->~Fn(); };
    if constexpr (std::is_trivially_copyable_v<Fn>) {
      assign_ = nullptr;  // plain memcpy is valid
    } else {
      // Lambdas have no copy assignment: destroy + copy-construct.
      assign_ = [](void* dst, const void* src) {
        static_cast<Fn*>(dst)->~Fn();
        ::new (dst) Fn(*static_cast<const Fn*>(src));
      };
    }
  }

  /// Replay-path update: overwrite the stored capture with the capture of
  /// `fn`, which must be the same type as the originally-stored callable
  /// (guaranteed by identical submission order in a persistent region).
  template <class F>
  void update(F&& fn) {
    using Fn = std::decay_t<F>;
    TDG_DCHECK(size_ == sizeof(Fn), "persistent replay type mismatch");
    Fn tmp(std::forward<F>(fn));
    if (assign_ == nullptr) {
      std::memcpy(storage(), &tmp, sizeof(Fn));
    } else {
      assign_(storage(), &tmp);
    }
  }

  void invoke() {
    TDG_DCHECK(invoke_ != nullptr, "invoking empty task body");
    invoke_(storage());
  }

  bool empty() const noexcept { return invoke_ == nullptr; }
  std::size_t capture_bytes() const noexcept { return size_; }
  bool trivially_copyable() const noexcept { return assign_ == nullptr; }

  /// Stable pointer to the stored capture bytes, for compiled PTSG replay
  /// plans: when the capture is trivially copyable, replay overwrites it
  /// with one memcpy straight from the freshly-built callable, skipping
  /// the type-erased update() dispatch. Valid while a callable is stored;
  /// replay never re-emplaces, so the pointer is stable across iterations.
  void* capture_dst() noexcept {
    return invoke_ != nullptr ? storage() : nullptr;
  }

  void reset() {
    if (invoke_ != nullptr) {
      destroy_(storage());
      invoke_ = nullptr;
      destroy_ = nullptr;
      assign_ = nullptr;
    }
    if (heap_ != nullptr) {
      ::operator delete(heap_, std::align_val_t{align_});
      heap_ = nullptr;
    }
    size_ = 0;
  }

 private:
  void* storage() noexcept { return heap_ != nullptr ? heap_ : inline_; }

  alignas(std::max_align_t) unsigned char inline_[kInlineBytes];
  void* heap_ = nullptr;
  std::size_t align_ = alignof(std::max_align_t);
  std::size_t size_ = 0;
  void (*invoke_)(void*) = nullptr;
  void (*destroy_)(void*) = nullptr;
  void (*assign_)(void*, const void*) = nullptr;
};

/// Per-task options supplied at submission.
struct TaskOpts {
  const char* label = "";     ///< profiler label (static string)
  Event* detach = nullptr;    ///< detach event; task completes on fulfill
  bool internal = false;      ///< runtime-inserted node (e.g. inoutset R)
  /// The body's effect is safe to re-execute or re-satisfy locally: the
  /// recovery layer may re-route or locally complete this task's detach
  /// instead of poisoning it when a peer rank dies. Annotating a
  /// non-idempotent task invites stale/duplicated effects — the contract
  /// is that the body writes only its declared outputs, from inputs that
  /// remain valid after a failure.
  bool idempotent = false;
  /// Transient-failure policy: a body that throws is re-run up to
  /// `max_retries` times before the task is declared failed and its
  /// dependents cancelled. Retries sleep `retry_backoff_seconds * 2^k`
  /// (k = 0, 1, ...) between attempts, on the executing worker.
  std::uint32_t max_retries = 0;
  double retry_backoff_seconds = 0.0;
};

/// A task descriptor. Instances are reference counted: the dependency map,
/// the persistent region and the task itself (until completion) each hold a
/// reference, so a pointer obtained from the map is always valid.
/// Descriptors are normally placement-constructed in a TaskArena slab
/// block (Runtime::allocate_task) and recycled on final release; a
/// plain-`new`ed descriptor (arena == nullptr) still works for tests.
class Task {
 public:
  /// Successor-edge storage. The inline capacity matches the graph shapes
  /// of the figure benches (telemetry: LULESH/HPCG writers fan out to 1-3
  /// consumers after dedup, chains to exactly 1); larger fan-outs —
  /// inoutset redirects, wide reader sets — spill to the heap. The
  /// inline-or-heap union keeps the list at 40 bytes; the whole descriptor
  /// is one 464-byte slab block (checked below the class).
  static constexpr std::size_t kInlineSuccessors = 4;
  using SuccessorList = small_vector<Task*, kInlineSuccessors>;

  explicit Task(std::uint64_t id, TaskArena* arena = nullptr,
                Runtime* owner = nullptr)
      : id_(id), arena_(arena), owner_(owner) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  std::uint64_t id() const noexcept { return id_; }

  /// The tenant runtime this task belongs to. Shared-pool workers execute
  /// tasks of many tenants and dispatch completion/metrics/poisoning
  /// through this backpointer; a pending task keeps its runtime alive (the
  /// runtime's destructor drains before detaching from the pool), so the
  /// pointer is valid for as long as the task is reachable from any queue.
  /// Null only for plain-heap descriptors constructed outside a runtime
  /// (tests).
  Runtime* owner() const noexcept { return owner_; }

  // --- descriptor reference counting -------------------------------------
  void retain() noexcept { refs_.fetch_add(1, std::memory_order_relaxed); }
  /// Returns true when this release destroyed the task. The block goes
  /// back to the owning arena's freelist (lock-free, any thread) instead
  /// of the global heap.
  bool release() noexcept {
    if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      TaskArena* a = arena_;
      if (a != nullptr) {
        this->~Task();
        a->deallocate(this);
      } else {
        delete this;
      }
      return true;
    }
    return false;
  }

  // --- edges ---------------------------------------------------------------
  /// Outcome of attempting to create an edge  this -> succ.
  enum class EdgeResult : std::uint8_t {
    Created,   ///< edge recorded; successor refcount must be incremented
    Pruned,    ///< predecessor already finished; no constraint needed
    Recorded,  ///< persistent mode: edge recorded for replay, but the
               ///< predecessor already finished so no refcount this round
  };

  /// Create a precedence edge from this task to `succ`. Thread-safe against
  /// concurrent completion of `this`. In persistent mode edges to finished
  /// predecessors are still recorded (the paper: "creating every edge is
  /// necessary since no edges are recreated on future iterations").
  /// Graph poisoning: an edge to a predecessor that already finished in a
  /// failed/cancelled state cancels the successor immediately — pruning
  /// must not let a late-discovered dependent escape cancellation.
  EdgeResult add_successor(Task* succ, bool persistent) {
    SpinGuard g(succ_lock_);
    if (try_prune(succ)) {  // finished; a poisoned instance cancelled succ
      if (!persistent) return EdgeResult::Pruned;
      successors_.push_back(succ);
      return EdgeResult::Recorded;
    }
    successors_.push_back(succ);
    return EdgeResult::Created;
  }

  /// True when this instance has already finished, so `succ` needs no
  /// edge to it; a poisoned instance cancels `succ` first, so pruning
  /// cannot let a late dependent escape cancellation. Non-persistent
  /// discovery calls it without the lock, as its pruned-edge fast path: no
  /// RMW, no lock. The acquire load pairs with the release store in
  /// snapshot_successors_and_finish, so everything the instance did
  /// happens-before the producer's guard drop on `succ`. False means
  /// "maybe live": the caller takes add_successor, which re-checks under
  /// succ_lock_. Sound because only the producer adds successors and a
  /// non-persistent instance never un-finishes (re-arming is for
  /// persistent tasks, whose discovery always takes the lock).
  bool try_prune(Task* succ) const noexcept {
    const std::uint8_t fs = finish_state_.load(std::memory_order_acquire);
    if ((fs & kFinished) == 0) return false;
    if ((fs & kPoisoned) != 0) {
      succ->cancelled.store(true, std::memory_order_release);
    }
    return true;
  }

  /// Snapshot successors and mark finished, so that later add_successor
  /// calls observe completion. Called once per execution instance. When
  /// `keep` (persistent task), the recorded list is preserved for replay.
  /// `poisoned` marks this instance failed/cancelled, so late edges to it
  /// cancel their successor (see add_successor and try_prune). The state
  /// is stored with release, still under the lock, for try_prune.
  SuccessorList snapshot_successors_and_finish(bool keep,
                                                    bool poisoned) {
    SpinGuard g(succ_lock_);
    finish_state_.store(
        static_cast<std::uint8_t>(poisoned ? kFinished | kPoisoned : kFinished),
        std::memory_order_release);
    if (keep) return successors_;  // copy
    return std::move(successors_);
  }

  /// Persistent re-arm: clear the finished flag so the recorded successor
  /// list applies again next iteration (the list is NOT cleared), and
  /// reset the failure state of the previous iteration's instance.
  void rearm_persistent() {
    SpinGuard g(succ_lock_);
    finish_state_.store(0, std::memory_order_relaxed);
    failed = false;
    retry_attempts = 0;  // each replayed instance gets the full budget
    cancelled.store(false, std::memory_order_relaxed);
  }

  const SuccessorList& successors_unsafe() const { return successors_; }

  // --- readiness refcount ---------------------------------------------------
  /// Predecessor counter. Convention: a task is created with value 1 (the
  /// discovery guard); each inbound edge adds 1; the producer drops the
  /// guard once the depend clause is fully processed. Reaching 0 => ready.
  std::atomic<std::int32_t> npredecessors{1};

  /// Completion latch: 1 for the body, +1 when a detach event is attached.
  std::atomic<std::int32_t> completion_latch{1};

  // --- failure state ----------------------------------------------------------
  /// Set (with release) before the predecessor's count is dropped when a
  /// transitive predecessor failed; observed (acquire via npredecessors)
  /// when the task becomes ready, where its body is skipped.
  std::atomic<bool> cancelled{false};
  /// Set by the executing thread after the final failed attempt, before
  /// the completion-latch decrement (which orders it for the completer).
  bool failed = false;
  /// Clock record handed out by the online race detector at discovery
  /// (producer-side, before the discovery guard drops, so workers see it
  /// via the npredecessors acq_rel chain). Null for unsampled tasks, which
  /// then skip the detector's start/finish hooks entirely; non-null lets
  /// the start hook reach its clauses without a map lookup. Valid until
  /// the next taskwait barrier, by which point the task has completed.
  void* race_clock = nullptr;
  /// Attempts already burned by the retry policy. Persists across
  /// deferred-retry requeues (the task leaves and re-enters the scheduler
  /// between attempts instead of sleeping on a worker).
  std::uint32_t retry_attempts = 0;
  /// Earliest time the next retry attempt may run (set when the body
  /// failed with a nonzero backoff; consumed by the deferred queue).
  std::uint64_t retry_not_before_ns = 0;

  // --- persistent-graph bookkeeping -----------------------------------------
  bool persistent = false;
  /// Total inbound edges recorded during first-iteration discovery,
  /// including edges to then-already-finished predecessors.
  std::int32_t persistent_indegree = 0;
  std::uint32_t iteration = 0;  ///< persistent-region iteration index

  /// Slot that ran the body (profiling). Written by the executing worker,
  /// so it lives here with completion_latch rather than among the
  /// profiling stamps next to the discovery-side fields.
  std::uint32_t exec_thread = 0;

  // --- body / metadata -------------------------------------------------------
  TaskBody body;
  TaskOpts opts;
  Event* detach_event = nullptr;
  std::atomic<TaskState> state{TaskState::Created};

  // --- profiling --------------------------------------------------------------
  std::uint64_t t_create = 0;
  std::uint64_t t_ready = 0;
  std::uint64_t t_start = 0;
  std::uint64_t t_end = 0;

 private:
  ~Task() = default;  // heap-only; destroyed via release()

  static constexpr std::uint8_t kFinished = 1;  // instance completed
  static constexpr std::uint8_t kPoisoned = 2;  // ... failed or cancelled

  const std::uint64_t id_;
  TaskArena* arena_ = nullptr;  // recycle target; nullptr = plain heap

 public:
  // --- duplicate-edge detection (optimization (b)) ---------------------------
  /// Id of the most recent successor an edge was created to. Discovery is
  /// sequential, so a repeated (pred,succ) pair is detected in O(1).
  /// It opens a 16-byte-aligned group with the fields below, so the
  /// discovery-side fields of a predecessor (stamp, finish state, refs,
  /// lock) share one cache line; line 0 belongs to the executing worker.
  std::uint64_t last_successor_id = 0;

 private:
  std::atomic<std::int32_t> refs_{1};
  SpinLock succ_lock_;
  std::atomic<std::uint8_t> finish_state_{0};  // kFinished | kPoisoned
  Runtime* owner_ = nullptr;    // owning tenant runtime (see owner())
  SuccessorList successors_;
};

// Growing the descriptor grows every slab block (one per live task).
static_assert(sizeof(Task) <= 464, "Task outgrew its 464-byte slab block");

}  // namespace tdg
