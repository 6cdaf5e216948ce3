// Task descriptor: body storage, readiness refcount, successor edges,
// detach events and persistent-graph bookkeeping.
#pragma once

#include <atomic>
#include <cstddef>
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
/// type: a plain memcpy for trivially-copyable captures, destroy and
/// move-construct otherwise. This mirrors the paper's "task initialization
/// cost reduced to a single memcpy on firstprivate data".
///
/// Layout: one pointer to a per-type static operations table, then the
/// inline capture bytes. A capture that is larger than kInlineBytes or
/// over-aligned spills to the heap, and the heap pointer is kept in the
/// inline bytes. The whole body is one 64-byte cache line.
class TaskBody {
 public:
  /// Sized for the largest body on the default app path: the emitter's
  /// allreduce capture is 56 bytes, send/recv 48, compute (a wrapped
  /// std::function) 32. RuntimeEmitter asserts those sizes at compile time.
  static constexpr std::size_t kInlineBytes = 56;
  static constexpr std::size_t kInlineAlign = alignof(void*);

  TaskBody() = default;
  TaskBody(const TaskBody&) = delete;
  TaskBody& operator=(const TaskBody&) = delete;

  ~TaskBody() { reset(); }

  template <class F>
  void emplace(F&& fn) {
    using Fn = std::decay_t<F>;
    reset();
    if constexpr (kFitsInline<Fn>) {
      ::new (static_cast<void*>(inline_)) Fn(std::forward<F>(fn));
    } else {
      constexpr std::align_val_t al{alignof(Fn)};
      void* p = ::operator new(sizeof(Fn), al);
      try {
        ::new (p) Fn(std::forward<F>(fn));
      } catch (...) {
        ::operator delete(p, al);
        throw;
      }
      heap_ = p;
    }
    ops_ = &kOps<Fn>;
  }

  /// Replay-path update: overwrite the stored capture with the capture of
  /// `fn`, which must be the same type as the originally-stored callable
  /// (guaranteed by identical submission order in a persistent region).
  template <class F>
  void update(F&& fn) {
    using Fn = std::decay_t<F>;
    TDG_DCHECK(capture_bytes() == sizeof(Fn),
               "persistent replay type mismatch");
    if constexpr (std::is_trivially_copyable_v<Fn>) {
      const Fn tmp(std::forward<F>(fn));
      std::memcpy(static_cast<void*>(at<Fn>(slot())), &tmp, sizeof(Fn));
    } else {
      // Lambdas have no assignment: destroy, then construct in place from
      // the new callable (a move for the usual rvalue submission).
      Fn* dst = at<Fn>(slot());
      dst->~Fn();
      ::new (static_cast<void*>(dst)) Fn(std::forward<F>(fn));
    }
  }

  void invoke() {
    TDG_DCHECK(ops_ != nullptr, "invoking empty task body");
    ops_->invoke(slot());
  }

  bool empty() const noexcept { return ops_ == nullptr; }
  std::size_t capture_bytes() const noexcept {
    return ops_ != nullptr ? ops_->size : 0;
  }

  /// Address of the stored capture: the inline bytes, or the heap block a
  /// spilled capture lives in (nullptr when empty). update() writes here;
  /// replay never re-emplaces, so the address is stable across iterations.
  void* capture_dst() noexcept {
    if (ops_ == nullptr) return nullptr;
    return ops_->heap_align == 0 ? static_cast<void*>(inline_) : heap_;
  }

  void reset() {
    if (ops_ == nullptr) return;
    const Ops* ops = ops_;
    ops_ = nullptr;
    ops->destroy(slot());
    if (ops->heap_align != 0) {
      ::operator delete(heap_, std::align_val_t{ops->heap_align});
    }
  }

 private:
  /// Per-type operations. Each takes slot(), the address of the inline
  /// bytes, and finds the capture there or behind the spilled pointer.
  struct Ops {
    void (*invoke)(void*);
    void (*destroy)(void*);
    std::uint32_t size;        ///< sizeof the callable
    std::uint32_t heap_align;  ///< 0: inline; else heap alignment
  };

  template <class Fn>
  static constexpr bool kFitsInline =
      sizeof(Fn) <= kInlineBytes && alignof(Fn) <= kInlineAlign;

  template <class Fn>
  static Fn* at(void* slot) noexcept {
    if constexpr (kFitsInline<Fn>) {
      return std::launder(static_cast<Fn*>(slot));
    } else {
      return static_cast<Fn*>(*static_cast<void**>(slot));
    }
  }

  template <class Fn>
  static constexpr Ops make_ops() noexcept {
    Ops ops{};
    ops.invoke = [](void* s) { (*at<Fn>(s))(); };
    ops.destroy = [](void* s) { at<Fn>(s)->~Fn(); };
    ops.size = sizeof(Fn);
    ops.heap_align = kFitsInline<Fn> ? 0 : alignof(Fn);
    return ops;
  }

  template <class Fn>
  static constexpr Ops kOps = make_ops<Fn>();

  void* slot() noexcept { return static_cast<void*>(inline_); }

  const Ops* ops_ = nullptr;  // nullptr: empty
  union {
    alignas(kInlineAlign) unsigned char inline_[kInlineBytes];
    void* heap_;  // spilled capture (ops_->heap_align != 0)
  };
};

static_assert(sizeof(TaskBody) == kCacheLine,
              "TaskBody is one cache line: ops pointer + inline bytes");

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
  /// dependents cancelled. With a backoff, attempt k (k = 0, 1, ...) is
  /// retried no sooner than `retry_backoff_seconds * 2^k` after it failed:
  /// the task waits on the deferred queue, and no thread sleeps for it.
  /// Without one, the failed body re-runs at once on the same thread.
  std::uint32_t max_retries = 0;
  double retry_backoff_seconds = 0.0;
};

/// A task descriptor. Instances are reference counted: the dependency map,
/// the persistent region and the task itself (until completion) each hold a
/// reference, so a pointer obtained from the map is always valid. The map
/// holds one reference however many history lists name the task: the
/// producer counts those in hist_refs and retains or releases the
/// descriptor only when that count leaves or returns to zero.
/// Descriptors are normally placement-constructed in a TaskArena slab
/// block (Runtime::allocate_task) and recycled on final release; a
/// plain-`new`ed descriptor (arena == nullptr) still works for tests.
///
/// The descriptor is one 256-byte slab block of four cache lines:
///   line 0  identity, completion latch, failure flags, retry policy
///   line 1  the body (ops pointer + 56 inline capture bytes)
///   line 2  label, timeline stamps, persistent bookkeeping
///   line 3  discovery group: last successor id, refcounts, history
///           references, lock, finish state and the successor list
/// Every task of a rediscovered graph holds one block until it retires, so
/// a field added here costs the memory of the whole live graph.
class Task {
 public:
  /// Discovery guard: the predecessor count a task starts from. It biases
  /// the count so no predecessor can drive it to zero while the producer
  /// is still adding edges; the producer counts the edges it creates in
  /// discovered_edges and, once the clause is processed, subtracts the
  /// guard minus that count in one RMW (see drop_discovery_guard).
  static constexpr std::int32_t kDiscoveryGuard = 1 << 30;

  /// Successor-edge storage. The inline capacity matches the graph shapes
  /// of the figure benches (telemetry: LULESH/HPCG writers fan out to 1-3
  /// consumers after dedup, chains to exactly 1); larger fan-outs —
  /// inoutset redirects, wide reader sets — spill to the heap. The
  /// inline-or-heap union keeps the list at 40 bytes, so it fits in the
  /// discovery cache line (checked below the class).
  static constexpr std::size_t kInlineSuccessors = 4;
  using SuccessorList = small_vector<Task*, kInlineSuccessors>;

  explicit Task(std::uint64_t id, TaskArena* arena = nullptr,
                Runtime* owner = nullptr)
      : id_(id), owner_(owner), arena_(arena) {}
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
    Created,   ///< edge recorded; the producer counts it in discovered_edges
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
    TDG_DCHECK(!successors_frozen_,
               "edge added to a replayed persistent task");
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
  /// succ_lock_. Sound because only the producer adds successors and an
  /// instance never un-finishes (a persistent task is frozen before it is
  /// re-armed, and no edge reaches it after that).
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

  /// Freeze the successor list of a persistent task once its discovery
  /// iteration is over: the access history no longer holds it, so no edge
  /// can be added again, and replayed instances read the list in place —
  /// no lock, no copy, no finish-state store (see frozen_successors).
  void freeze_successors() noexcept { successors_frozen_ = true; }
  bool successors_frozen() const noexcept { return successors_frozen_; }
  /// The frozen list (valid only after freeze_successors()).
  const SuccessorList& frozen_successors() const noexcept {
    TDG_DCHECK(successors_frozen_, "successor list is not frozen");
    return successors_;
  }

  /// Drop the discovery guard once every edge of the clause is created
  /// (producer only). True when the task is ready: every counted edge has
  /// already been released, so the count reaches zero here.
  bool drop_discovery_guard() noexcept {
    TDG_DCHECK(discovered_edges < static_cast<std::uint32_t>(kDiscoveryGuard),
               "more inbound edges than the discovery guard covers");
    const std::int32_t drop =
        kDiscoveryGuard - static_cast<std::int32_t>(discovered_edges);
    return npredecessors.fetch_sub(drop, std::memory_order_acq_rel) == drop;
  }

  /// History references (producer only): the dependency map's lists name
  /// the task hist_refs times and hold one descriptor reference for all.
  void retain_history() noexcept {
    if (hist_refs++ == 0) retain();
  }
  void release_history() noexcept {
    if (--hist_refs == 0) release();
  }

  /// Persistent re-arm, the one rule: restore what the next replayed
  /// instance starts from, out of the task's own fields. The predecessor
  /// count is every recorded edge plus the discovery guard the producer
  /// drops at replay (redirect nodes are not re-submitted, so they have
  /// none); the latch is 2 with a detach event; the failure state is clean
  /// and each instance gets the full retry budget. Called once when the
  /// replay plan is compiled, then by complete_task as each replayed
  /// instance finishes: every predecessor has released the task by then
  /// and its successor list is frozen, so nothing races the stores, and
  /// the completer's live-count decrement publishes them to the barrier.
  /// The detach event is re-armed at the next begin_iteration instead, so
  /// a late duplicate fulfil stays a no-op (see PersistentRegion). The
  /// finish state is left as it is: nothing reads it once frozen.
  void rearm_persistent() noexcept {
    npredecessors.store(persistent_indegree + (internal ? 0 : 1),
                        std::memory_order_relaxed);
    completion_latch.store(detach_event != nullptr ? 2 : 1,
                           std::memory_order_relaxed);
    failed = false;
    cancelled.store(false, std::memory_order_relaxed);
    retry_attempts = 0;
    ++iteration;
  }

 private:
  ~Task() = default;  // heap-only; destroyed via release()

  static constexpr std::uint8_t kFinished = 1;  // instance completed
  static constexpr std::uint8_t kPoisoned = 2;  // ... failed or cancelled

  // === line 0: identity and execution state (the executing worker) ========
  const std::uint64_t id_;
  Runtime* owner_ = nullptr;    // owning tenant runtime (see owner())
  TaskArena* arena_ = nullptr;  // recycle target; nullptr = plain heap

 public:
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
  /// Runtime-inserted node (e.g. inoutset R): TaskOpts::internal.
  bool internal = false;
  /// The runtime stamps this task's boundaries (t_ready, t_start, t_end):
  /// every task when tracing, the timing sample otherwise (see
  /// timing_samples_task), none when the runtime is untimed.
  bool timed = false;
  /// TaskOpts::detach. The event itself carries the label, id and
  /// idempotency snapshot the recovery layer reads.
  Event* detach_event = nullptr;
  /// Attempts already burned by the retry policy. Persists across
  /// deferred-retry requeues (the task leaves and re-enters the scheduler
  /// between attempts instead of sleeping on a worker); the not-before
  /// deadline of a deferred attempt lives in the deferred queue entry.
  std::uint32_t retry_attempts = 0;
  /// Retry policy, copied from TaskOpts at submission.
  std::uint32_t max_retries = 0;
  double retry_backoff_seconds = 0.0;

  // === line 1: the body ======================================================
  TaskBody body;

  // === line 2: label, profiling, persistent bookkeeping ======================
  const char* label = "";  ///< TaskOpts::label (static string)
  std::uint64_t t_create = 0;
  std::uint64_t t_ready = 0;
  std::uint64_t t_start = 0;
  std::uint64_t t_end = 0;
  /// Total inbound edges recorded during first-iteration discovery,
  /// including edges to then-already-finished predecessors.
  std::int32_t persistent_indegree = 0;
  /// Inbound edges created while discovering this instance (producer
  /// only): each will be released by its predecessor, so the guard drop
  /// leaves exactly this many on npredecessors.
  std::uint32_t discovered_edges = 0;
  std::uint32_t iteration = 0;  ///< persistent-region iteration index
  bool persistent = false;

 private:
  bool successors_frozen_ = false;  // see freeze_successors()

 public:
  // === line 3: discovery group ===============================================
  /// Id of the most recent successor an edge was created to. Discovery is
  /// sequential, so a repeated (pred,succ) pair is detected in O(1)
  /// (optimization (b)). It opens the cache-line-aligned group with the
  /// fields below, so everything discovery touches on a predecessor
  /// (stamp, refcounts, lock, finish state, successor list) is one line.
  alignas(kCacheLine) std::uint64_t last_successor_id = 0;

 private:
  std::atomic<std::int32_t> refs_{1};

 public:
  // --- readiness refcount ---------------------------------------------------
  /// Predecessor counter. A task is created with kDiscoveryGuard; each
  /// predecessor releases one edge as it completes; the producer drops the
  /// guard less the edges it created once the depend clause is fully
  /// processed (drop_discovery_guard), so no edge costs the producer an
  /// RMW. Reaching 0 => ready. A re-armed persistent task starts from its
  /// recorded edges plus a guard of 1 instead (rearm_persistent).
  std::atomic<std::int32_t> npredecessors{kDiscoveryGuard};

 private:
  SpinLock succ_lock_;
  std::atomic<std::uint8_t> finish_state_{0};  // kFinished | kPoisoned
  std::uint32_t hist_refs = 0;  // see retain_history (in the padding)
  SuccessorList successors_;

  friend struct TaskLayout;
};

// Task mixes access specifiers, so it is not standard-layout; GCC and
// Clang still evaluate offsetof on it (no virtual bases).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winvalid-offsetof"
/// Layout checks (a friend, so they can name the private fields).
struct TaskLayout {
  static constexpr std::size_t kGroupBegin = offsetof(Task, last_successor_id);
  static constexpr std::size_t kGroupEnd =
      offsetof(Task, successors_) + sizeof(Task::SuccessorList);
};
#pragma GCC diagnostic pop

// Growing the descriptor grows every slab block (one per live task).
static_assert(sizeof(Task) <= 256, "Task outgrew its 256-byte slab block");
static_assert(TaskLayout::kGroupBegin % kCacheLine == 0 &&
                  TaskLayout::kGroupEnd - TaskLayout::kGroupBegin <= kCacheLine,
              "the discovery fields of Task must share one cache line");

}  // namespace tdg
