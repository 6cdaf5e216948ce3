// The tdg runtime: an MPC-OMP-like dependent-task execution engine.
//
// One producer thread discovers the task dependency graph sequentially
// (submit / taskloop) while a team of workers executes it concurrently —
// the overlap whose speed balance the paper studies. Workers use per-thread
// deques with work stealing; the depth-first LIFO policy pushes newly-ready
// successors to the head of the completing thread's deque (cache reuse).
//
// A worker completing a task under that policy keeps one newly-ready
// successor for itself and runs it next, with no deque round trip — the
// successor handoff of Taskflow's executor (see complete_task).
//
// Multi-tenancy (see core/worker_pool.hpp): the worker team lives in a
// WorkerPool that N runtimes may share. A Runtime is then a thin per-tenant
// front end — discovery state, PTSG, verifier, metrics namespace, watchdog,
// submission shard, inject and deferred queues, throttle quota — while the
// pool owns threads, worker deques, parking and victim selection. A solo
// Runtime (Config::pool == nullptr) constructs a private pool and behaves
// exactly as the single-team runtime always did.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/common.hpp"
#include "core/depend.hpp"
#include "core/deque.hpp"
#include "core/env.hpp"
#include "core/error.hpp"
#include "core/metrics.hpp"
#include "core/profiler.hpp"
#include "core/scheduler.hpp"
#include "core/slab.hpp"
#include "core/task.hpp"
#include "core/trace_export.hpp"
#include "core/verify.hpp"
#include "core/watchdog.hpp"
#include "core/worker_pool.hpp"

namespace tdg {

class PersistentRegion;

/// Pre-registered handles into a runtime's metrics registry — the unified
/// observability namespace covering discovery, scheduling, execution and
/// persistent replay. MPI-layer components add their own `comm.*` metrics
/// to the same registry (see mpi/interop.hpp).
struct RuntimeMetricIds {
  using Id = MetricsRegistry::Id;
  // discovery
  Id tasks_submitted;   ///< counter discovery.tasks
  Id internal_nodes;    ///< counter discovery.redirect_nodes
  Id edges_created;     ///< counter discovery.edges_created
  Id edges_duplicate;   ///< counter discovery.edges_duplicate
  Id edges_pruned;      ///< counter discovery.edges_pruned
  Id hash_probes;       ///< counter discovery.hash_probes (depend items)
  Id probe_len;         ///< histogram discovery.probe_len (table probes)
  Id rehash;            ///< counter discovery.rehash (table grows)
  Id addr_entries;      ///< gauge discovery.addr_entries (live history)
  Id arena_bytes;       ///< gauge discovery.arena_bytes (table + entries)
  // scheduler
  Id spawns;            ///< counter sched.spawns (ready enqueues)
  Id steals;            ///< counter sched.steals
  Id steal_failures;    ///< counter sched.steal_failures
  Id throttle_stalls;   ///< counter sched.throttle_stalls
  Id parks;             ///< counter sched.parks (worker cv waits)
  Id wakeups;           ///< counter sched.wakeups (cv notifies sent)
  Id retry_defers;      ///< counter sched.retry_defers (backoff requeues)
  Id ready_depth;       ///< gauge   sched.ready_depth
  // task descriptor slab allocator
  Id slab_recycled;     ///< counter alloc.slab_recycled (freelist hits)
  Id slab_fresh;        ///< counter alloc.slab_fresh (bump-carved blocks)
  Id slab_chunks;       ///< counter alloc.slab_chunks (chunk carves)
  // execution
  Id tasks_executed;    ///< counter exec.tasks (user tasks finished)
  Id redirects_executed;  ///< counter exec.redirect_nodes (finished)
  Id tasks_failed;      ///< counter exec.failed (final failures)
  Id tasks_cancelled;   ///< counter exec.cancelled (incl. redirect nodes)
  Id task_retries;      ///< counter exec.retries (extra attempts)
  Id body_ns;           ///< histogram exec.body_ns
  Id queue_ns;          ///< histogram exec.queue_ns (ready -> start)
  // persistent regions
  Id replay_tasks;      ///< counter persistent.replay_tasks
  Id replay_bytes;      ///< counter persistent.memcpy_bytes
  Id iterations;        ///< counter persistent.iterations
  // TDG verification (TDG_VERIFY), added at each checked taskwait
  Id verify_windows;    ///< counter verify.windows (taskwait windows checked)
  Id verify_pairs;      ///< counter verify.pairs_checked (ordering tests)
  Id verify_races;      ///< counter verify.races (violations found)

  void register_into(MetricsRegistry& reg);
};

/// Snapshot of runtime counters (graph structure + discovery span). The
/// task counts are read from the metrics registry (RuntimeMetricIds) and
/// the discovery counts from the dependence rules.
struct RuntimeStats {
  std::uint64_t tasks_created = 0;    ///< user tasks discovered
  std::uint64_t internal_nodes = 0;   ///< inoutset redirect nodes
  std::uint64_t tasks_executed = 0;   ///< task instances run (replays count)
  std::uint64_t tasks_failed = 0;     ///< instances whose body threw (final)
  std::uint64_t tasks_cancelled = 0;  ///< instances skipped by poisoning
  std::uint64_t task_retries = 0;     ///< extra attempts by the retry policy
  DiscoveryStats discovery;
  /// Discovery span: first to last task creation since the last reset
  /// ("the time from the first to the last task creation", Section 1).
  std::uint64_t discovery_begin_ns = 0;
  std::uint64_t discovery_end_ns = 0;

  double discovery_seconds() const {
    return discovery_end_ns > discovery_begin_ns
               ? static_cast<double>(discovery_end_ns - discovery_begin_ns) *
                     1e-9
               : 0.0;
  }
  std::uint64_t edges_total() const {
    return discovery.edges_created;
  }
};

/// One element of a submit_batch call: a task body plus its depend clause.
template <class F>
struct BatchItem {
  F fn;
  DependList deps;
  TaskOpts opts{};
};

/// Dependent-task runtime. One instance owns a worker team (or attaches to
/// a shared WorkerPool as one tenant); the thread that constructs it
/// becomes thread slot 0, the producer, which discovers the graph and helps
/// execute during taskwait and when throttled.
class Runtime {
 public:
  struct Config {
    unsigned num_threads = 0;  ///< 0 = hardware concurrency
    SchedulePolicy policy = SchedulePolicy::DepthFirstLifo;
    DiscoveryOptions discovery;
    ThrottleConfig throttle;
    WatchdogConfig watchdog;  ///< hang detection; disabled by default
    /// Record full task traces (Gantt etc.): every task is stamped.
    bool trace = false;
    /// Collect the timing metrics: histograms, the work/overhead/idle
    /// breakdown, and the clock stamps behind them — the bodies and ready
    /// times of a 1-in-16 sample of tasks (all of them when tracing) and
    /// one stamp per span boundary of each thread. Counters and gauges
    /// always count. TDG_METRICS overrides it, and TDG_TRACE force-enables
    /// `trace` (see core/env.hpp).
    bool metrics = true;
    /// TDG soundness verification (see core/verify.hpp): Off = free; the
    /// other modes capture the clause/edge/barrier/scope-clear streams
    /// (no timing, no task records) and check the window since the last
    /// taskwait at every taskwait. Sample checks one task in 16 and drops
    /// the verified prefix (unless `trace` keeps it for export); Post
    /// checks every task and reports violations to stderr; Strict throws
    /// VerifyError. Post and Strict also check that every persistent-region
    /// replay issues the discovery iteration's depend clauses. TDG_VERIFY
    /// overrides it (see core/env.hpp).
    VerifyMode verify = VerifyMode::Off;
    /// Attach to a shared WorkerPool (multi-tenant mode) instead of
    /// constructing a private worker team. The pool must outlive the
    /// runtime. With a shared pool `num_threads` is ignored (the pool
    /// sizes the team) and `throttle` becomes this tenant's admission
    /// quota: when the tenant's own ready/total backlog exceeds it, its
    /// producer stops discovering and executes its own tasks — other
    /// tenants are unaffected.
    WorkerPool* pool = nullptr;
    /// Per-tenant scheduling options (weight for weighted-fair stealing).
    /// Only meaningful with a shared pool.
    TenantOptions tenant;
  };

  Runtime() : Runtime(Config{}) {}
  /// The constructing thread becomes the producer; destroy the runtime
  /// on that thread, which then drives the runtime it drove before.
  explicit Runtime(Config cfg);
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // --- task submission (producer side) ------------------------------------
  /// Submit one dependent task. Returns its id. Submissions must be
  /// serialized (single producer), per the sequential-discovery model.
  template <class F>
  std::uint64_t submit(F&& fn, std::span<const Depend> deps,
                       TaskOpts opts = {}) {
    // The replay-safety check must see the clause of every iteration —
    // including replays, which never reach discovery — so it hooks in
    // before the replay branch.
    if (verify_clauses_) log_verify_clause(deps);
    if (replay_active_) {
      // PTSG replay: the task exists, so submitting re-initializes its
      // firstprivate capture — one memcpy when the capture is trivially
      // copyable, a move otherwise — and drops its discovery guard.
      Task* t = next_replay_task();
      t->body.update(std::forward<F>(fn));
      return release_replayed(t);
    }
    Task* t = allocate_task(opts);
    t->body.emplace(std::forward<F>(fn));
    // Read the id while the discovery guard still holds the task: once it
    // drops, a worker may run the task and recycle its slab block.
    const std::uint64_t id = t->id();
    finish_submission(t, deps);
    return id;
  }

  template <class F>
  std::uint64_t submit(F&& fn, std::initializer_list<Depend> deps,
                       TaskOpts opts = {}) {
    return submit(std::forward<F>(fn),
                  std::span<const Depend>(deps.begin(), deps.size()), opts);
  }

  /// OpenMP `taskloop num_tasks(n) depend(...)`: split [begin,end) into
  /// `num_tasks` contiguous chunks; `depgen(chunk, lo, hi, out_deps)` fills
  /// the depend clause of each chunk, `body(lo, hi)` is the chunk kernel.
  template <class DepGen, class Body>
  void taskloop(std::int64_t begin, std::int64_t end, int num_tasks,
                DepGen&& depgen, Body&& body, TaskOpts opts = {}) {
    TDG_REQUIRE(num_tasks > 0, "taskloop requires num_tasks > 0");
    const std::int64_t n = end - begin;
    if (n <= 0) return;
    const std::int64_t chunks = std::min<std::int64_t>(num_tasks, n);
    DependList deps;
    for (std::int64_t c = 0; c < chunks; ++c) {
      const std::int64_t lo = begin + n * c / chunks;
      const std::int64_t hi = begin + n * (c + 1) / chunks;
      deps.clear();
      depgen(static_cast<int>(c), lo, hi, deps);
      submit([body, lo, hi] { body(lo, hi); },
             std::span<const Depend>(deps.data(), deps.size()), opts);
    }
  }

  /// Batched submission: open one discovery episode covering every submit
  /// until end_batch(). Per-submit costs that exist only to publish tasks
  /// promptly — the discovery-window clock stamp, the live-count RMW, the
  /// parked-worker fence and probe, the throttle check — are
  /// deferred and paid once per batch; tasks that become ready inside the
  /// batch are buffered producer-locally and released together. Discovery
  /// itself (hash probes, edge wiring) is identical to the loop of
  /// submit() calls, so the resulting TDG is the same — `TDG_VERIFY=strict`
  /// equivalence is part of the test suite. Producer-only, like submit.
  void begin_batch();
  /// Publish everything buffered since begin_batch() and resume immediate
  /// mode. Implicitly called by taskwait()/drain if a batch is open.
  void end_batch();

  /// Submit a vector of clause sets as one discovery episode (sugar over
  /// begin_batch / submit loop / end_batch). Bodies are moved out of the
  /// items; deps are read in place.
  template <class F>
  void submit_batch(std::span<BatchItem<F>> items) {
    begin_batch();
    for (auto& it : items) {
      submit(std::move(it.fn),
             std::span<const Depend>(it.deps.data(), it.deps.size()),
             it.opts);
    }
    end_batch();
  }
  template <class F>
  void submit_batch(std::vector<BatchItem<F>>& items) {
    submit_batch(std::span<BatchItem<F>>(items.data(), items.size()));
  }

  /// Wait until every submitted task has completed; the calling thread
  /// executes tasks while waiting (an OpenMP taskwait-at-region-scope).
  ///
  /// Failure model: if any task body threw (after exhausting its retry
  /// budget), the graph is first fully drained — transitive dependents of
  /// failed tasks are cancelled, independent tasks still run — and then a
  /// TaskGroupError aggregating every failure and cancellation is thrown.
  /// The runtime remains usable afterwards. With a watchdog deadline
  /// configured, a no-progress stall instead raises DeadlineError (or
  /// invokes the configured callback) with a diagnostic report.
  void taskwait();

  /// Create a detach event to attach to a task via TaskOpts::detach.
  /// Events live until the runtime is destroyed.
  Event* create_event();
  /// Events created so far (all live until the runtime is destroyed).
  std::size_t event_count() const;

  /// The detach event of the task currently executing on the calling
  /// thread (nullptr outside a task body or if it has none). This is how a
  /// replayed persistent task reaches its own event: the TaskOpts of
  /// replay submissions are ignored, the discovery-time event is reused
  /// and re-armed each iteration.
  Event* current_task_event() const;

  // --- scheduling-point hook (MPI interoperability) ------------------------
  /// Identifies one installed polling hook, so an owner can uninstall its
  /// own hook without clobbering a newer one installed after it.
  using PollingHookToken = std::shared_ptr<const std::function<void()>>;

  /// Called repeatedly from worker idle loops, task boundaries and
  /// taskwait: the MPI polling hook of the paper ("polling MPI requests on
  /// OpenMP scheduling points"). Must be thread-safe. Returns a token for
  /// clear_polling_hook; installing a new hook replaces the previous one.
  /// Both return only once no other thread is still running the hook they
  /// took out, so its owner may then be destroyed (a call made from
  /// inside that hook does not wait for itself).
  PollingHookToken set_polling_hook(std::function<void()> hook);
  /// Uninstall the hook identified by `token` — only if it is still the
  /// installed one (a later set_polling_hook wins and is left in place).
  void clear_polling_hook(const PollingHookToken& token);

  // --- introspection --------------------------------------------------------
  /// Run the TDG soundness checker over everything captured so far
  /// (requires Config::trace or a non-Off verify mode; otherwise the
  /// streams are empty and the report is trivially clean; sample mode
  /// without `trace` drops each window once it is checked). Pure — no
  /// runtime state changes; callable at any quiescent point.
  VerifyReport verify_graph(const VerifyOptions& opts = {}) const {
    return verify_tdg(profiler_->accesses(), profiler_->edges(),
                      profiler_->barriers(), profiler_->scope_clears(),
                      opts);
  }
  RuntimeStats stats() const;
  /// Restart the stats() counts and the discovery span from zero (through
  /// a baseline: the registry counters and the profiler are untouched).
  void reset_stats();
  Profiler& profiler() { return *profiler_; }
  /// The unified metrics registry (see core/metrics.hpp). Components may
  /// register additional metrics at any time; snapshot() anywhere.
  MetricsRegistry& metrics() { return *metrics_; }
  const MetricsRegistry& metrics() const { return *metrics_; }
  /// Handles of the runtime's own metrics (tests / tools).
  const RuntimeMetricIds& metric_ids() const { return m_; }
  /// Shard hint for metrics written on behalf of this runtime from the
  /// calling thread: its slot (see current_slot).
  unsigned metrics_shard() const { return current_slot(); }
  /// The runtime's hang watchdog (configure via Config::watchdog; attach
  /// extra diagnostics, e.g. a RequestPoller's pending-request dump).
  Watchdog& watchdog() { return watchdog_; }
  /// True if failures/cancellations have been recorded since the last
  /// taskwait() that reported them.
  bool has_failures() const {
    return has_failures_.load(std::memory_order_acquire);
  }
  /// Execution slots visible to this runtime: slot 0 (the producer) plus
  /// one per pool worker. For a solo runtime this equals the configured
  /// thread count, exactly as before the pool split.
  unsigned num_threads() const { return 1 + pool_->num_workers(); }
  /// The worker pool executing this runtime's tasks (private for a solo
  /// runtime, shared across tenants otherwise).
  WorkerPool& pool() { return *pool_; }
  const WorkerPool& pool() const { return *pool_; }
  /// This runtime's tenant slot in the pool (allocation shard index,
  /// fairness accounting key, `tenant=<id>` metrics dimension).
  unsigned tenant_id() const { return tenant_id_; }
  /// The slab arena backing task descriptors — owned by the pool, one
  /// allocation shard per tenant (leak checks in tests: live_blocks()
  /// returns to the dependency map's holdover count after a drain, and to
  /// zero after clear_dependency_scope()).
  const TaskArena& task_arena() const { return pool_->arena(); }
  /// The producer's access-history table (tests / tools: table capacity,
  /// live entries, rehash count, arena footprint).
  const DependencyMap& dependency_map() const { return dep_map_; }
  const Config& config() const { return cfg_; }
  /// The TDG_* overrides read at construction (core/env.hpp).
  const EnvConfig& env() const { return env_; }
  /// Live tasks = created and not yet finished: the sum of the per-slot
  /// counts. Racy while tasks run (a sum of slots read one after another);
  /// exact at quiescence, e.g. after taskwait().
  std::size_t live_tasks() const {
    const std::int64_t n = live_sum();
    return n > 0 ? static_cast<std::size_t>(n) : 0;
  }
  /// Ready = queued, not started: the sum of the `sched.ready_depth`
  /// gauge's shards. Racy while tasks run; exact at quiescence.
  std::size_t ready_tasks() const {
    const auto n = static_cast<std::int64_t>(metrics_->read(m_.ready_depth));
    return n > 0 ? static_cast<std::size_t>(n) : 0;
  }

  /// Clear the producer's dependency history: subsequent tasks see no
  /// predecessors. Used between independent graph phases and by
  /// persistent regions at discovery end.
  void clear_dependency_scope();

 private:
  friend class PersistentRegion;
  friend class Event;
  friend class WorkerPool;
  friend DependencyMap;

  // --- edge sink of the dependence rules (core/depend_rules.hpp) ----------
  EdgeOutcome discover_edge(Task* pred, Task* succ);
  Task* make_internal_node();  ///< inoutset redirect, guard held
  void seal_internal_node(Task* node);
  static std::uint64_t node_id(Task* t) { return t->id(); }
  static std::uint64_t& last_successor(Task* t) {
    return t->last_successor_id;
  }

  Task* allocate_task(const TaskOpts& opts);
  void finish_submission(Task* t, std::span<const Depend> deps);
  /// The cached task of the next replay slot (aborts past the plan's end).
  Task* next_replay_task();
  /// Finish a replay submission whose capture is updated: draw the
  /// instance's timing sample and drop the discovery guard. Replay writes
  /// nothing else per task — no clock read unless tracing or sampled, no
  /// counter (the region adds the iteration's totals at its end) and no
  /// throttle.
  std::uint64_t release_replayed(Task* t);

  /// Publish a task that just became ready. `slot` is the calling
  /// thread's (current_slot): the spawn and ready-depth writes go to its
  /// single-writer metrics shard. `stamp` is a clock read the caller
  /// already holds (a completer's body end; 0 if none): a timed task takes
  /// it as its t_ready instead of reading the clock again.
  void enqueue_ready(Task* t, unsigned slot, std::uint64_t stamp = 0);
  /// Run the body of a user task on `thread`; a timed task stamps its
  /// body's start and end. With `handoff`, returns the successor that
  /// complete_task handed to this thread (nullptr if none).
  Task* run_task(Task* t, unsigned thread, bool handoff);
  /// Finish `t` (`t_end` is its body-end stamp, 0 when untimed) on the
  /// calling thread's slot `thread`: count, trace, release its successors.
  /// With `handoff`, the last successor that becomes ready and has a body
  /// is returned instead of queued — counted in sched.spawns and poisoned
  /// like its siblings — and the caller runs it next. Detach fulfilment
  /// and inline redirect nodes pass false.
  Task* complete_task(Task* t, unsigned thread, std::uint64_t t_end,
                      bool handoff);
  /// Outcome of one scheduling of a task body under the retry policy.
  enum class BodyOutcome : std::uint8_t {
    Success,   ///< body returned (possibly after immediate retries)
    Failed,    ///< retry budget exhausted; failure recorded
    Deferred,  ///< transient failure with backoff: requeue, don't complete
  };
  /// Execute the body with the task's retry policy. Zero-backoff retries
  /// loop inline; a nonzero backoff returns Deferred with `not_before_ns`
  /// set, and the caller requeues the task so the worker keeps executing
  /// other ready tasks instead of sleeping.
  BodyOutcome run_body_with_retries(Task* t, std::uint64_t& not_before_ns);
  /// Park the deferred retry until `deadline`; the deadline is kept in
  /// the deferred queue entry, not on the descriptor.
  void schedule_retry(Task* t, std::uint64_t deadline);
  /// Pop one deferred task whose deadline has passed (nullptr if none).
  Task* take_due_deferred();
  /// Cross-thread ready-queue: enqueues from threads that do not own the
  /// hinted deque (e.g. an external thread fulfilling a detach event, or
  /// a pool reroute of a foreign task).
  void push_inject(Task* t);
  Task* pop_inject();
  /// The one acquisition path, for the producer and pool workers alike:
  /// account for a task just taken from a queue (steal counter,
  /// ready-depth gauge), run it on slot `slot`, then run every successor
  /// handed back (`handoff`). The streak is busy time from the thread's
  /// running `mark` (the probe's start). A thread that goes on charging
  /// here keeps the busy span open across streaks, to be charged by its
  /// next miss or the end of its wait; a shared pool's worker charges it
  /// to this tenant with one clock read now. Each task a pool worker runs
  /// is charged to this tenant (WorkerPool::note_served).
  void run_acquired(Task* t, unsigned slot, bool stole, bool deferred,
                    RunningMark& mark, bool handoff);
  /// Start `slot`'s running mark, published as its open span.
  void open_mark(unsigned slot, RunningMark& mark) {
    mark.ns = now_ns();
    profiler_->open(slot, mark.ns);
  }
  /// A probe on slot `slot` came up empty: one clock read ends the busy
  /// span of the streaks run since the mark, if any. `work_existed`,
  /// sampled as the probe began, classifies the span from there until the
  /// wait step after it ends; a miss that saw work counts a steal failure.
  void note_miss(unsigned slot, RunningMark& mark, bool work_existed) {
    if (work_existed) metrics_->add(m_.steal_failures, 1, slot);
    mark.work_existed = work_existed;
    if (!timed_ || mark.ns == 0) return;
    if (mark.busy) {
      const std::uint64_t now = now_ns();
      profiler_->charge(slot, Profiler::Span::Busy, mark.ns, now,
                        /*open=*/true);
      mark.ns = now;
      mark.busy = false;
    }
    profiler_->set_open_kind(slot, miss_kind(work_existed));
  }
  /// The end of a producer's wait: charge the streaks still open, or just
  /// close the span (the last wait step charged it).
  void close_mark(unsigned slot, RunningMark& mark) {
    if (mark.ns == 0) return;
    if (mark.busy) {
      profiler_->charge(slot, Profiler::Span::Busy, mark.ns, now_ns(),
                        /*open=*/false);
    } else {
      profiler_->close(slot);
    }
  }
  static Profiler::Span miss_kind(bool work_existed) {
    return work_existed ? Profiler::Span::Busy : Profiler::Span::Idle;
  }
  /// The one rule for time spent outside tasks: one wait step of an
  /// empty-handed thread after a missed probe (`wait`: poll the hooks,
  /// back off or park). One clock read charges the miss and the wait, from
  /// the running mark to now: busy (overhead) when ready work existed as
  /// the probe began, idle otherwise.
  template <class Wait>
  void charged_wait(unsigned slot, RunningMark& mark, Wait&& wait) {
    wait();
    if (!timed_ || mark.ns == 0) return;
    const std::uint64_t now = now_ns();
    profiler_->charge(slot, miss_kind(mark.work_existed), mark.ns, now,
                      /*open=*/true);
    mark.ns = now;
  }
  void record_failure(Task* t, std::exception_ptr err, std::uint32_t tries);
  void record_cancelled(Task* t);
  /// taskwait minus the failure rethrow (used by destructors, which must
  /// not throw, and by PersistentRegion's barrier bookkeeping).
  void drain();
  /// Throw the aggregated TaskGroupError if any failure was recorded;
  /// clears the recorded state first (the runtime stays usable).
  void throw_if_failed();
  void runtime_diagnostic(std::string& out) const;
  /// Producer/taskwait self-help: obtain and run one of THIS runtime's
  /// tasks from the calling thread; returns false if none was available
  /// (pool workers use WorkerPool::try_execute_one instead). `handoff`
  /// lets the thread chain into successors (drain, not throttle: a
  /// throttled producer must get back to discovery). `mark` is the
  /// thread's running mark within this wait; the first probe starts it.
  bool try_execute_one(unsigned thread, bool handoff, RunningMark& mark);
  void throttle(unsigned thread);
  /// True while a throttle bound is exceeded. The ready bound reads the
  /// gauge only when it is bounded; the total bound is checked against
  /// live_[0] + others_bound_ and re-reads the other slots only when that
  /// upper bound crosses max_total.
  bool throttled();
  void poll();
  /// The calling thread's slot: 0 for this runtime's producer, 1 + k for
  /// pool worker k, and num_threads() (the foreign slot) for any other
  /// thread. Metric shards, live counts and trace buffers are per slot;
  /// the foreign one is shared and written with RMWs or under a lock.
  unsigned current_slot() const;
  /// Hand the calling thread's producer identity back to the runtime
  /// this one replaced, or unlink this runtime from the thread's chain.
  void release_producer();
  /// A submission (or a replay iteration) of `n` live tasks: slot 0, RMW,
  /// since foreign submitters may share the slot.
  void live_add(std::int64_t n) {
    live_[0].n.fetch_add(n, std::memory_order_relaxed);
  }
  /// A completion on `slot`, with release: drain's acquire sum then sees
  /// everything the task did (a re-arm included). Worker slots have one
  /// writer and take a plain store; slot 0 and the foreign slot an RMW.
  void live_done(unsigned slot) {
    std::atomic<std::int64_t>& c = live_[slot].n;
    if (slot != 0 && slot != foreign_slot_) {
      c.store(c.load(std::memory_order_relaxed) - 1,
              std::memory_order_release);
    } else {
      c.fetch_sub(1, std::memory_order_release);
    }
  }
  /// Sum of every slot but 0 (never positive: only slot 0 adds).
  std::int64_t live_others() const {
    std::int64_t sum = 0;
    for (unsigned i = 1; i <= foreign_slot_; ++i) {
      sum += live_[i].n.load(std::memory_order_acquire);
    }
    return sum;
  }
  /// Live tasks, summed with acquire loads: the other slots first, then
  /// slot 0, so a completion counted here has its submission counted too
  /// and a sum of 0 means every task submitted so far has finished.
  std::int64_t live_sum() const {
    const std::int64_t others = live_others();
    return others + live_[0].n.load(std::memory_order_acquire);
  }
  /// Counter increment routed to the calling thread's shard.
  void madd(MetricsRegistry::Id id, std::uint64_t v = 1) {
    metrics_->add(id, v, current_slot());
  }
  /// Capture the metrics baseline a later watchdog report deltas against.
  void arm_watchdog_baseline();
  /// The watchdog's progress epoch: tasks finished, failed and cancelled
  /// (redirect nodes included) plus retry attempts, from the registry.
  std::uint64_t progress_epoch() const;
  /// Check the window since the last verified taskwait if the verify mode
  /// asks for it and anything was submitted since. Strict mode throws
  /// VerifyError when `allow_throw` (taskwait); Sample and Post — and
  /// Strict from contexts that must not throw (destructor) — report to
  /// stderr.
  void verify_now(bool allow_throw);
  /// Out-of-line clause hook for the replay-safety check (keeps the
  /// submit template free of PersistentRegion's definition).
  void log_verify_clause(std::span<const Depend> deps);
  /// Teardown observability: export the trace (TDG_TRACE) and dump the
  /// metrics report (TDG_METRICS=dump). Called from the destructor.
  void finalize_observability();

  Config cfg_;
  std::unique_ptr<MetricsRegistry> metrics_;
  RuntimeMetricIds m_;
  EnvConfig env_;  ///< read once, at construction
  /// Timeline stamps (t_ready/t_start/t_end and the profiler's ledger)
  /// cost a clock read each. They are only consumed by metrics, traces and
  /// the teardown reports, so when both are off the stamps are skipped
  /// wholesale. When on, only timed tasks (Task::timed: all of them when
  /// tracing, the 1-in-16 timing sample otherwise) read the clock for
  /// themselves — t_ready at publication unless the completer hands over
  /// its body-end stamp, body start and body end — and each thread reads
  /// it once per span boundary of its ledger: at the end of each streak of
  /// tasks, and after each missed probe and each wait step. t_create is
  /// read by traces alone and stamped only when tracing. The per-episode
  /// discovery window (discovery_seconds) is always maintained: it is the
  /// paper's headline statistic, stamped at an episode's first submission
  /// and then at a stride of at most kDiscoveryStride submissions (one
  /// stamp per batch; a replay iteration reads at its first and last
  /// replay).
  bool timed_ = true;
  /// Baseline snapshot for "counters since arming" watchdog diagnostics.
  mutable SpinLock wd_baseline_lock_;
  MetricsSnapshot wd_baseline_;
  bool wd_baseline_set_ = false;
  std::unique_ptr<Profiler> profiler_;
  Watchdog watchdog_;
  DependencyMap dep_map_;
  /// Private pool of a solo runtime (Config::pool == nullptr). Destroyed
  /// explicitly at the end of ~Runtime, after every task reference has
  /// been released back into the pool-owned arena.
  std::unique_ptr<WorkerPool> owned_pool_;
  /// The pool this runtime is attached to (owned_pool_.get() or
  /// Config::pool). Always non-null after construction.
  WorkerPool* pool_ = nullptr;
  unsigned tenant_id_ = 0;
  /// This tenant's submission shard: the producer pushes/pops the bottom,
  /// pool workers and sibling producers steal the top.
  WorkDeque shard_;
  /// Producer-side xorshift state for randomized steal scans (atomic:
  /// external submitter threads may share the stream).
  std::atomic<std::uint64_t> producer_rng_{0x9e3779b97f4a7c15ull};
  std::vector<std::unique_ptr<Event>> events_;
  mutable SpinLock events_lock_;  // also taken by the watchdog diagnostic

  /// Injected ready tasks from threads that do not own a deque slot
  /// (detach fulfilment from foreign threads, nested-runtime producers,
  /// pool reroutes of this tenant's tasks found in sibling shards). The
  /// queue's lock-free count mirror is release/acquire-paired so the
  /// empty-probe fast path never misses a published inject.
  InjectQueue<Task> inject_;

  // Batched submission (begin_batch/end_batch, producer-only). Tasks that
  // become ready inside a batch are buffered here and published together;
  // live-count increments of non-internal tasks are deferred alongside
  // (internal redirect nodes keep immediate accounting — they can complete
  // inline during the batch).
  bool batch_active_ = false;
  bool batch_stamped_ = false;  ///< discovery-begin stamped for this batch
  std::vector<Task*> batch_ready_;
  std::size_t batch_pending_ = 0;

  /// Deferred retry queue: tasks waiting out a retry backoff without
  /// occupying a worker. Tiny (one entry per in-flight flaky task), so a
  /// spinlocked vector scan beats a heap.
  mutable SpinLock deferred_lock_;
  struct DeferredTask {
    std::uint64_t not_before_ns;
    Task* task;
  };
  std::vector<DeferredTask> deferred_;
  /// Earliest deferred deadline (UINT64_MAX when none): the hot-path
  /// gate so try_execute_one pays one relaxed load when no retry is
  /// pending.
  std::atomic<std::uint64_t> next_deferred_ns_{UINT64_MAX};

  /// The polling hook is installed/cleared concurrently with workers
  /// invoking it (e.g. a RequestPoller tearing down), so pollers pin it
  /// via a shared_ptr copied under a spin lock. It is boxed: the box's
  /// reference count is the runtime's own plus one per poll() running
  /// it, whatever copies of the token its owner keeps, so set and clear
  /// can wait the running calls out.
  using HookBox = std::shared_ptr<const PollingHookToken>;
  HookBox polling_hook_;
  mutable SpinLock hook_lock_;

  /// Submitted and not finished, one count per slot (current_slot): slot 0
  /// adds every submission, each completion subtracts on its completer's
  /// slot. taskwait's condition, the throttle's total-task bound and
  /// live_tasks() sum them.
  struct alignas(kCacheLine) LiveCount {
    std::atomic<std::int64_t> n{0};
  };
  std::unique_ptr<LiveCount[]> live_;
  /// num_threads(): the slot of threads that are neither the producer nor
  /// a pool worker.
  unsigned foreign_slot_ = 0;
  /// The constructing thread's producer before this runtime took over.
  Runtime* replaced_producer_ = nullptr;
  /// Throttle's bound on the other slots' sum (submitting thread only):
  /// their last-read sum, which only shrinks afterwards.
  std::int64_t others_bound_ = 0;

  // failure aggregation (executing threads write under failures_lock_;
  // taskwait drains the graph, then swaps the lists out and throws)
  mutable SpinLock failures_lock_;
  std::vector<TaskFailure> failures_;
  std::vector<CancelledTask> cancelled_;
  std::atomic<bool> has_failures_{false};

  // discovery span (producer-written)
  std::uint64_t discovery_begin_ns_ = 0;
  std::uint64_t discovery_end_ns_ = 0;
  /// Unbatched submissions since the window opened: submission n is
  /// stamped when n is a power of two below kDiscoveryStride or a multiple
  /// of it, so the window's end falls at most kDiscoveryStride - 1
  /// submissions before the last one.
  std::uint64_t window_submits_ = 0;
  static constexpr std::uint64_t kDiscoveryStride = 64;
  /// Registry task counts at the last reset_stats(), subtracted by stats().
  RuntimeStats stats_base_;
  std::atomic<std::uint64_t> next_task_id_{1};

  // persistent-region state (managed by PersistentRegion)
  PersistentRegion* region_ = nullptr;
  bool discovering_persistent_ = false;
  bool replay_active_ = false;

  // verification state (producer-only)
  /// True while a persistent region wants every submission's clause for
  /// the replay-safety check (verify mode post or strict and a region
  /// active).
  bool verify_clauses_ = false;
  /// Barrier cutoff of the last verified taskwait: every task up to it
  /// has been checked, so the next check covers only later ids (each
  /// taskwait costs its own window, not the whole history).
  std::uint64_t verified_through_ = 0;
};

}  // namespace tdg
