#include "core/runtime.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "core/persistent.hpp"

namespace tdg {

namespace {
// The runtime this thread is the producer of (the one it constructed most
// recently and has not destroyed). The submission shard's Chase-Lev bottom
// is single-owner, so push/pop fast paths are only taken when the calling
// thread verifiably IS the producer of this runtime — foreign threads
// (detach fulfilment from another rank's team, nested runtimes on one
// thread, sibling tenants) go through the inject queue / steal path
// instead. Pool workers are identified separately (WorkerPool's own TLS).
thread_local Runtime* tls_runtime = nullptr;
// Task whose body is executing on this thread (for current_task_event).
thread_local Task* tls_current_task = nullptr;
// Polling hook this thread is running, if any (see retire_hook).
thread_local const Runtime::PollingHookToken* tls_running_hook = nullptr;

/// Wait until no other thread runs the hook in `old`, which is no longer
/// installed, then drop it. poll() copies the box under hook_lock_, so no
/// new call can start: wait for the running ones to drop their copies.
/// Dropping ours last is an acq_rel decrement that synchronizes with
/// theirs, so everything the hook did happens before we return. A hook
/// retiring itself does not wait for its own call.
void retire_hook(std::shared_ptr<const Runtime::PollingHookToken> old) {
  if (old == nullptr || tls_running_hook == old.get()) return;
  Backoff bo;
  while (old.use_count() > 1) bo.pause();
}

unsigned resolve_threads(unsigned n) {
  return n != 0 ? n : std::max(1u, std::thread::hardware_concurrency());
}
}  // namespace

// ---------------------------------------------------------------------------
// Event
// ---------------------------------------------------------------------------

void Event::fulfill() {
  if (fulfilled_.exchange(true, std::memory_order_acq_rel)) return;
  Task* t = task_;
  if (t == nullptr) return;
  if (t->completion_latch.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    runtime_->complete_task(t, runtime_->current_slot(),
                            t->timed ? now_ns() : 0, /*handoff=*/false);
  }
}

void Event::poison(std::exception_ptr err) {
  if (fulfilled_.exchange(true, std::memory_order_acq_rel)) return;
  Task* t = task_;
  if (t == nullptr) return;
  // Failing the owning task before releasing the latch routes completion
  // through the normal failed-task path: successors are cancelled by
  // graph poisoning and the group error surfaces at taskwait.
  runtime_->record_failure(t, std::move(err),
                           std::max(1u, t->retry_attempts));
  if (t->completion_latch.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    runtime_->complete_task(t, runtime_->current_slot(),
                            t->timed ? now_ns() : 0, /*handoff=*/false);
  }
}

// ---------------------------------------------------------------------------
// Construction / teardown
// ---------------------------------------------------------------------------

void RuntimeMetricIds::register_into(MetricsRegistry& reg) {
  tasks_submitted = reg.counter("discovery.tasks");
  internal_nodes = reg.counter("discovery.redirect_nodes");
  edges_created = reg.counter("discovery.edges_created");
  edges_duplicate = reg.counter("discovery.edges_duplicate");
  edges_pruned = reg.counter("discovery.edges_pruned");
  hash_probes = reg.counter("discovery.hash_probes");
  probe_len = reg.histogram("discovery.probe_len");
  rehash = reg.counter("discovery.rehash");
  addr_entries = reg.gauge("discovery.addr_entries");
  arena_bytes = reg.gauge("discovery.arena_bytes");
  spawns = reg.counter("sched.spawns");
  steals = reg.counter("sched.steals");
  steal_failures = reg.counter("sched.steal_failures");
  throttle_stalls = reg.counter("sched.throttle_stalls");
  parks = reg.counter("sched.parks");
  wakeups = reg.counter("sched.wakeups");
  retry_defers = reg.counter("sched.retry_defers");
  ready_depth = reg.gauge("sched.ready_depth");
  slab_recycled = reg.counter("alloc.slab_recycled");
  slab_fresh = reg.counter("alloc.slab_fresh");
  slab_chunks = reg.counter("alloc.slab_chunks");
  tasks_executed = reg.counter("exec.tasks");
  redirects_executed = reg.counter("exec.redirect_nodes");
  tasks_failed = reg.counter("exec.failed");
  tasks_cancelled = reg.counter("exec.cancelled");
  task_retries = reg.counter("exec.retries");
  body_ns = reg.histogram("exec.body_ns");
  queue_ns = reg.histogram("exec.queue_ns");
  replay_tasks = reg.counter("persistent.replay_tasks");
  replay_bytes = reg.counter("persistent.memcpy_bytes");
  iterations = reg.counter("persistent.iterations");
  verify_windows = reg.counter("verify.windows");
  verify_pairs = reg.counter("verify.pairs_checked");
  verify_races = reg.counter("verify.races");
}

Runtime::Runtime(Config cfg)
    : cfg_(cfg),
      env_(read_env()),
      watchdog_(cfg.watchdog) {
  watchdog_.add_diagnostic(
      [this](std::string& out) { runtime_diagnostic(out); });
  watchdog_.set_progress_source([this] { return progress_epoch(); });
  // Environment overrides (core/env.hpp). A verify mode turns on the
  // profiler's stream capture only: it reads no clock stamps and no task
  // records, so it leaves `trace` (and with it timed_) alone.
  const bool metrics_on = env_.metrics.value_or(cfg_.metrics);
  if (env_.trace) cfg_.trace = true;
  if (env_.verify) cfg_.verify = *env_.verify;
  timed_ = metrics_on || cfg_.trace;
  // Slot layout: 0 is the producer, 1..num_workers are the pool workers —
  // identical to the pre-pool slot numbering for a solo runtime.
  const unsigned n = cfg_.pool != nullptr
                         ? 1 + cfg_.pool->num_workers()
                         : resolve_threads(cfg_.num_threads);
  cfg_.num_threads = n;
  foreign_slot_ = n;
  live_ = std::make_unique<LiveCount[]>(n + 1);
  metrics_ = std::make_unique<MetricsRegistry>(n, metrics_on);
  m_.register_into(*metrics_);
  dep_map_.bind_metrics(
      metrics_.get(),
      {m_.probe_len, m_.rehash, m_.addr_entries, m_.arena_bytes});
  dep_map_.bind_edge_metrics(metrics_.get(),
                             {m_.edges_created, m_.edges_duplicate,
                              m_.edges_pruned, m_.internal_nodes});
  profiler_ = std::make_unique<Profiler>(*metrics_, cfg_.trace,
                                         cfg_.verify != VerifyMode::Off);
  if (cfg_.pool != nullptr) {
    pool_ = cfg_.pool;
  } else {
    // Solo mode: a private pool inheriting this runtime's policy and
    // thread count. Workers spawn idle (no tenant attached yet); the
    // metrics/profiler members they attribute into are already built.
    WorkerPool::Config pc;
    pc.num_workers = n - 1;
    pc.policy = cfg_.policy;
    pc.max_tenants = 1;
    owned_pool_.reset(new WorkerPool(pc, this));
    pool_ = owned_pool_.get();
  }
  replaced_producer_ = tls_runtime;
  tls_runtime = this;  // caller becomes the producer
  try {
    tenant_id_ = pool_->attach(this, cfg_.tenant);
  } catch (...) {
    // Capacity exhausted: hand the producer identity back so the thread
    // keeps driving the runtime it had before.
    release_producer();
    throw;
  }
}

Runtime::~Runtime() {
  try {
    drain();
  } catch (const DeadlineError& e) {
    // Destroying a wedged runtime cannot be recovered from (tasks still
    // reference it); print the watchdog report and die loudly rather than
    // unwinding through a noexcept destructor.
    std::fprintf(stderr, "tdg: runtime destroyed while wedged:\n%s\n",
                 e.what());
    std::abort();
  }
  // Last verification chance for graphs never followed by a taskwait;
  // destructors cannot throw, so strict mode degrades to the stderr report.
  verify_now(/*allow_throw=*/false);
  // Failures no caller waited for can no longer be thrown; drop them.
  {
    SpinGuard g(failures_lock_);
    failures_.clear();
    cancelled_.clear();
    has_failures_.store(false, std::memory_order_relaxed);
  }
  release_producer();
  // Leave the pool: workers stop scanning this tenant (detach waits out
  // any pinned probe). The graph is drained, so no task of this tenant
  // exists anywhere in the pool.
  pool_->detach(tenant_id_);
  // Release the dependency map's holdover task references while the
  // (possibly private) pool — and with it the slab arena backing the
  // descriptors — is still alive.
  dep_map_.set_metrics_shard(current_slot());
  dep_map_.clear();
  // Solo mode: tear the private pool down (joins the workers), making the
  // trace/metrics streams quiescent for the export below.
  owned_pool_.reset();
  finalize_observability();
}

void Runtime::finalize_observability() {
  // Trace export (TDG_TRACE): workers have joined, the record stream is
  // quiescent. Later runtimes in the same process (e.g. one per Universe
  // rank) get sequence-numbered files so they do not clobber each other.
  if (env_.trace) {
    const std::vector<TaskRecord> records = profiler_->merged_trace();
    const std::vector<CommRecord> comms = profiler_->comm_records();
    if (!records.empty() || !comms.empty()) {
      static std::atomic<int> seq{0};
      const int k = seq.fetch_add(1, std::memory_order_relaxed);
      std::string path = env_.trace_file;
      if (path.empty()) {
        path = k == 0 ? std::string("tdg_trace.json")
                      : "tdg_trace." + std::to_string(k) + ".json";
      } else if (k > 0) {
        path += "." + std::to_string(k);
      }
      std::ofstream os(path);
      if (os) {
        // Base pid = this runtime's rank so per-rank files from one
        // Universe land on distinct process tracks even before merging.
        PerfettoOptions popts;
        popts.pid = profiler_->rank();
        write_perfetto(os, records, profiler_->edges(), profiler_->accesses(),
                       profiler_->barriers(), profiler_->scope_clears(), comms,
                       popts);
        std::fprintf(stderr,
                     "tdg: trace written to %s (%zu records, %zu edges)\n",
                     path.c_str(), records.size(),
                     profiler_->edges().size());
      } else {
        std::fprintf(stderr, "tdg: cannot open trace file %s\n",
                     path.c_str());
      }
    }
  }
  if (env_.metrics_dump) {
    // Shared-pool tenants tag every row with their tenant id (the
    // `tenant=<id>` dimension); the pool prints the untagged aggregate at
    // its own teardown, so existing parsers keep seeing plain totals. A
    // solo runtime's dump is byte-identical to the pre-pool format.
    const int tenant =
        cfg_.pool != nullptr ? static_cast<int>(tenant_id_) : -1;
    std::string text;
    {
      std::ostringstream os;
      metrics_->snapshot().write_text(os, /*nonzero_only=*/true, tenant);
      text = os.str();
    }
    std::fprintf(stderr, "tdg: metrics at teardown:\n%s", text.c_str());
  }
}

// ---------------------------------------------------------------------------
// Discovery
// ---------------------------------------------------------------------------

Task* Runtime::allocate_task(const TaskOpts& opts) {
  TDG_REQUIRE(opts.detach == nullptr || !opts.detach->fulfilled(),
              "detach event fulfilled before the task was submitted");
  // Slab allocation: discovery recycles fixed-size blocks instead of
  // paying a global-heap new/delete per task (PTSG replay allocates
  // nothing either way). The arena is pool-owned with one allocation shard
  // per tenant — the producer is the only allocator of its tenant, and
  // blocks freed by any worker recycle through the remote-free stack.
  TaskArena& arena = pool_->arena_;
  TaskArena::Source src;
  void* mem = arena.allocate(tenant_id_, src);
  Task* t = new (mem) Task(
      next_task_id_.fetch_add(1, std::memory_order_relaxed), &arena, this);
  const unsigned slot = current_slot();
  switch (src) {
    case TaskArena::Source::Recycled:
      metrics_->add(m_.slab_recycled, 1, slot);
      break;
    case TaskArena::Source::NewChunk:
      metrics_->add(m_.slab_chunks, 1, slot);
      [[fallthrough]];
    case TaskArena::Source::Fresh:
      metrics_->add(m_.slab_fresh, 1, slot);
      break;
  }
  t->label = opts.label;
  t->internal = opts.internal;
  t->max_retries = opts.max_retries;
  t->retry_backoff_seconds = opts.retry_backoff_seconds;
  t->timed = timed_ && (profiler_->trace_enabled() ||
                        timing_samples_task(t->id()));
  if (profiler_->trace_enabled()) t->t_create = now_ns();
  // Redirect nodes are counted by the rules.
  if (!opts.internal) metrics_->add(m_.tasks_submitted, 1, slot);
  if (slot == 0 && batch_active_ && !opts.internal) {
    // Batched submission defers the live-count publication to end_batch
    // (one RMW per batch). Internal redirect nodes keep immediate
    // accounting — they complete inline mid-batch, and their decrement
    // must not land before the increment. A batched task unblocked early
    // (a pool worker completing its predecessor publishes it directly) can
    // take the sum below zero until end_batch restores it; only this
    // producer reads it for control flow (drain/throttle run outside a
    // batch), so the skew is visible to diagnostics alone.
    ++batch_pending_;
  } else {
    live_add(1);
  }
  if (opts.detach != nullptr) {
    t->completion_latch.store(2, std::memory_order_relaxed);
    t->detach_event = opts.detach;
    opts.detach->runtime_ = this;
    opts.detach->task_ = t;
    opts.detach->task_label_ = opts.label;
    opts.detach->task_id_ = t->id();
    opts.detach->task_idempotent_ = opts.idempotent;
  }
  if (discovering_persistent_) {
    t->persistent = true;
    region_->record_task(t);
  }
  return t;
}

void Runtime::finish_submission(Task* t, std::span<const Depend> deps) {
  const unsigned slot = current_slot();
  // Each depend item is one probe of the per-address access history.
  if (!deps.empty()) metrics_->add(m_.hash_probes, deps.size(), slot);
  // Capture the clause before discovery mutates the history: the verifier
  // re-derives the required ordering from exactly this stream. Sample mode
  // reads only the sampled tasks' clauses, so unless a trace keeps the
  // whole stream the others are not recorded.
  if (!deps.empty() && profiler_->capturing() &&
      (cfg_.verify != VerifyMode::Sample || profiler_->trace_enabled() ||
       verify_samples_task(t->id()))) {
    profiler_->record_accesses(t->id(), t->label, deps.data(), deps.size());
  }
  dep_map_.set_metrics_shard(slot);
  dep_map_.apply(*this, t, deps, cfg_.discovery);
  const bool in_batch = slot == 0 && batch_active_;
  if (!in_batch) {
    // The window's stamps thin out to one per kDiscoveryStride
    // submissions: 1, 2, 4, ..., 32, then every multiple of the stride.
    if (discovery_begin_ns_ == 0) window_submits_ = 0;
    const std::uint64_t n = ++window_submits_;
    if (n % kDiscoveryStride == 0 || std::has_single_bit(n)) {
      const std::uint64_t ts = now_ns();
      if (discovery_begin_ns_ == 0) discovery_begin_ns_ = ts;
      discovery_end_ns_ = ts;
    }
  } else if (!batch_stamped_) {
    // One discovery-window stamp per batch instead of one per submit;
    // end_batch refreshes the end of the window.
    const std::uint64_t ts = now_ns();
    if (discovery_begin_ns_ == 0) discovery_begin_ns_ = ts;
    discovery_end_ns_ = ts;
    batch_stamped_ = true;
  }
  // Drop the discovery guard; the task may become ready immediately.
  if (t->drop_discovery_guard()) enqueue_ready(t, slot);
  if (!in_batch) throttle(slot);
}

EdgeOutcome Runtime::discover_edge(Task* pred, Task* succ) {
  EdgeOutcome out = EdgeOutcome::Pruned;
  // Fast path: an edge to an already-finished predecessor is pruned with
  // one acquire load — no RMW on the successor's count, no lock on the
  // predecessor (see Task::try_prune). Persistent discovery must record
  // every edge for replay, so it always takes the locked path.
  if (discovering_persistent_ || !pred->try_prune(succ)) {
    // No RMW on the successor's count: it still holds the discovery guard
    // (kDiscoveryGuard), which no predecessor completing in between can
    // release below, so the producer only counts the created edge and
    // settles the sum when it drops the guard.
    const Task::EdgeResult r =
        pred->add_successor(succ, discovering_persistent_);
    if (r == Task::EdgeResult::Created) ++succ->discovered_edges;
    // Persistent discovery records every edge (never Pruned) for replay.
    if (discovering_persistent_) ++succ->persistent_indegree;
    if (r != Task::EdgeResult::Pruned) out = EdgeOutcome::Created;
  }
  // A pruned dependence is real even though no runtime edge is needed (the
  // predecessor already finished); the trace stream keeps it so the
  // verifier — and critical-path analysis — see the full precedence
  // relation, not just the materialized subset. Without this, a pruned
  // pair whose repeat is then dedup'd away would surface as a false race.
  if (profiler_->capturing()) {
    profiler_->record_edge(pred->id(), succ->id());
  }
  return out;
}

Task* Runtime::make_internal_node() {
  TaskOpts opts;
  opts.label = "tdg::redirect";
  opts.internal = true;
  return allocate_task(opts);
}

void Runtime::seal_internal_node(Task* node) {
  if (node->drop_discovery_guard()) enqueue_ready(node, current_slot());
}

Task* Runtime::next_replay_task() {
  PersistentRegion& r = *region_;
  TDG_CHECK(r.replayed_ < r.plan_tasks_.size(),
            "persistent region replayed more tasks than were discovered");
  const std::size_t i = r.replayed_++;
  // The iteration's discovery window spans its replays: it opens at the
  // first and closes at the last, one clock read each.
  const bool last = i + 1 == r.plan_tasks_.size();
  if (i == 0 || last) {
    const std::uint64_t ts = now_ns();
    if (i == 0) discovery_begin_ns_ = ts;
    if (last) discovery_end_ns_ = ts;
  }
  return r.plan_tasks_[i];
}

std::uint64_t Runtime::release_replayed(Task* t) {
  if (timed_ && !profiler_->trace_enabled()) {
    t->timed = timing_samples_task(t->id(), t->iteration);
  }
  if (profiler_->trace_enabled()) t->t_create = now_ns();
  // As in submit: the id is read before the guard drops.
  const std::uint64_t id = t->id();
  if (t->npredecessors.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    enqueue_ready(t, current_slot());
  }
  // No throttling here: replay allocates nothing (the graph already
  // exists), and the iteration counts towards the live count up front —
  // waiting for it to drop below a total-task bound smaller than the
  // region would deadlock, since un-replayed tasks cannot run.
  return id;
}

void Runtime::clear_dependency_scope() {
  dep_map_.set_metrics_shard(current_slot());
  dep_map_.clear();
  // Mirror the cut in the verifier's input: no dependence is required
  // across a scope clear (the caller asserted phase independence), so the
  // shadow discovery must forget its history exactly where the map did.
  if (profiler_->capturing()) {
    profiler_->record_scope_clear(
        next_task_id_.load(std::memory_order_relaxed) - 1);
  }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

void Runtime::enqueue_ready(Task* t, unsigned slot, std::uint64_t stamp) {
  TDG_DCHECK(slot == current_slot(),
             "enqueue_ready on another thread's slot");
  if (t->body.empty()) {
    // Runtime-internal nodes (inoutset redirects) complete inline; they
    // carry no user work, no detach event and no timing of their own (the
    // caller's window covers them), and queueing them would only add
    // latency. A cancelled node still propagates the cancellation.
    complete_task(t, slot, stamp, /*handoff=*/false);
    return;
  }
  // Open batch (producer only — slot 0 keeps other threads off the plain
  // flag): buffer the task; end_batch publishes the whole set with one
  // gauge/wake round.
  if (slot == 0 && batch_active_) {
    batch_ready_.push_back(t);
    return;
  }
  if (t->timed) t->t_ready = stamp != 0 ? stamp : now_ns();
  metrics_->add(m_.spawns, 1, slot);
  metrics_->gauge_add(m_.ready_depth, +1, slot);
  // Depth-first heuristic: a newly-ready successor goes to the head of the
  // completing thread's deque so it runs right after its producer, while
  // its data is still cached. A pool worker pushes to its own pool deque;
  // the producer pushes to this tenant's submission shard; anyone else
  // (foreign-thread detach fulfilment, nested runtimes, pool reroutes)
  // goes through the inject queue.
  if (pool_->on_pool_worker()) {
    pool_->push_local(t);
  } else if (slot == 0) {
    shard_.push_front(t);
  } else {
    push_inject(t);
  }
  // Fence, then probe for parked workers (Dekker pairing with
  // WorkerPool::park_worker).
  pool_->wake_workers(1, this);
}

void Runtime::push_inject(Task* t) { inject_.push(t); }

Task* Runtime::pop_inject() { return inject_.pop(); }

void Runtime::begin_batch() {
  TDG_REQUIRE(tls_runtime == this,
              "begin_batch must be called by the producer thread");
  TDG_REQUIRE(!batch_active_, "begin_batch: a batch is already open");
  batch_active_ = true;
  batch_stamped_ = false;
}

void Runtime::end_batch() {
  TDG_REQUIRE(tls_runtime == this,
              "end_batch must be called by the producer thread");
  if (!batch_active_) return;
  batch_active_ = false;
  const std::uint64_t ts = now_ns();
  if (batch_stamped_) discovery_end_ns_ = ts;
  // Publish the deferred live count BEFORE releasing the tasks: a worker
  // may pop and complete one immediately, and its decrement must find the
  // increment already in place.
  if (batch_pending_ > 0) {
    live_add(static_cast<std::int64_t>(batch_pending_));
    batch_pending_ = 0;
  }
  const std::size_t k = batch_ready_.size();
  if (k > 0) {
    metrics_->add(m_.spawns, k, 0);
    metrics_->gauge_add(m_.ready_depth, static_cast<std::int64_t>(k), 0);
    for (Task* t : batch_ready_) {
      if (t->timed) t->t_ready = ts;
      shard_.push_front(t);
    }
    batch_ready_.clear();
    pool_->wake_workers(k, this);
  }
  throttle(current_slot());
}

Task* Runtime::run_task(Task* t, unsigned thread, bool handoff) {
  TDG_DCHECK(!t->body.empty(), "run_task on a bodiless node");
  const bool timed = t->timed;
  if (timed) t->t_start = now_ns();
  // Graph poisoning: a task whose (transitive) predecessor failed reaches
  // readiness normally but its body is skipped; completing it propagates
  // cancellation to its own successors.
  const bool cancelled = t->cancelled.load(std::memory_order_acquire);
  bool ok = !cancelled;
  if (cancelled) {
    if (!t->internal) record_cancelled(t);
  } else {
    Task* prev_current = tls_current_task;
    tls_current_task = t;
    std::uint64_t retry_not_before_ns = 0;
    const BodyOutcome oc = run_body_with_retries(t, retry_not_before_ns);
    tls_current_task = prev_current;
    if (oc == BodyOutcome::Deferred) {
      // The attempt failed but the retry budget is not exhausted. Instead
      // of sleeping out the backoff on this worker, park the task on the
      // deferred queue with a not-before deadline and move on. The
      // completion latch is untouched — the task is still pending and
      // comes back through run_task once the deadline passes.
      if (timed_) {
        profiler_->note_body(thread, timed, timed ? now_ns() - t->t_start : 0);
      }
      schedule_retry(t, retry_not_before_ns);
      return nullptr;
    }
    ok = oc == BodyOutcome::Success;
  }
  const std::uint64_t t_body_end = timed ? now_ns() : 0;
  if (timed_) profiler_->note_body(thread, timed, t_body_end - t->t_start);
  if (timed && ok) {
    metrics_->observe(m_.body_ns, t_body_end - t->t_start, thread);
    metrics_->observe(
        m_.queue_ns, t->t_start >= t->t_ready ? t->t_start - t->t_ready : 0,
        thread);
  }
  // A failed or cancelled task never posts the operation that would
  // fulfill its detach event; force-fulfill so the latch resolves instead
  // of wedging taskwait (idempotent if the body got far enough to post).
  if (!ok && t->detach_event != nullptr) t->detach_event->fulfill();
  if (t->completion_latch.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    return complete_task(t, thread, t_body_end, handoff);
  }
  return nullptr;
}

Runtime::BodyOutcome Runtime::run_body_with_retries(
    Task* t, std::uint64_t& not_before_ns) {
  // Attempts are counted on the task itself so the count survives a trip
  // through the deferred-retry queue.
  for (;;) {
    try {
      t->body.invoke();
      t->retry_attempts = 0;
      return BodyOutcome::Success;
    } catch (...) {
      const std::uint32_t attempt = ++t->retry_attempts;
      if (attempt > t->max_retries) {
        record_failure(t, std::current_exception(), attempt);
        return BodyOutcome::Failed;
      }
      madd(m_.task_retries);  // also a watchdog progress event
      if (t->retry_backoff_seconds > 0.0) {
        // The old implementation slept the backoff out right here,
        // stalling this worker for the whole window. Hand the task back
        // with a not-before deadline instead; the caller requeues it and
        // the worker stays available for other work.
        const double backoff =
            t->retry_backoff_seconds *
            static_cast<double>(1u << std::min(attempt - 1, 20u));
        not_before_ns = now_ns() + static_cast<std::uint64_t>(backoff * 1e9);
        return BodyOutcome::Deferred;
      }
      // Zero backoff: retry immediately, inline.
    }
  }
}

void Runtime::schedule_retry(Task* t, std::uint64_t deadline) {
  madd(m_.retry_defers);
  // The gate update stays under the lock so it can't race with the
  // recompute in take_due_deferred and strand a task behind a stale
  // UINT64_MAX.
  SpinGuard g(deferred_lock_);
  deferred_.push_back(DeferredTask{deadline, t});
  if (deadline < next_deferred_ns_.load(std::memory_order_relaxed)) {
    next_deferred_ns_.store(deadline, std::memory_order_release);
  }
}

Task* Runtime::take_due_deferred() {
  const std::uint64_t nd = next_deferred_ns_.load(std::memory_order_acquire);
  if (nd == UINT64_MAX || now_ns() < nd) return nullptr;
  SpinGuard g(deferred_lock_);
  if (deferred_.empty()) return nullptr;
  const std::uint64_t now = now_ns();
  Task* due = nullptr;
  for (std::size_t i = 0; i < deferred_.size(); ++i) {
    if (deferred_[i].not_before_ns <= now) {
      due = deferred_[i].task;
      deferred_[i] = deferred_.back();
      deferred_.pop_back();
      break;
    }
  }
  std::uint64_t next = UINT64_MAX;
  for (const DeferredTask& d : deferred_) {
    next = std::min(next, d.not_before_ns);
  }
  next_deferred_ns_.store(next, std::memory_order_release);
  return due;
}

void Runtime::record_failure(Task* t, std::exception_ptr err,
                             std::uint32_t tries) {
  t->failed = true;  // ordered for the completer by the latch decrement
  TaskFailure f;
  f.task_id = t->id();
  f.label = t->label;
  f.message = describe_exception(err);
  f.error = std::move(err);
  f.attempts = tries;
  SpinGuard g(failures_lock_);
  failures_.push_back(std::move(f));
  has_failures_.store(true, std::memory_order_release);
}

void Runtime::record_cancelled(Task* t) {
  SpinGuard g(failures_lock_);
  cancelled_.push_back(CancelledTask{t->id(), t->label});
  has_failures_.store(true, std::memory_order_release);
}

Task* Runtime::complete_task(Task* t, unsigned thread, std::uint64_t t_end,
                             bool handoff) {
  TDG_DCHECK(thread == current_slot(),
             "complete_task on another thread's slot");
  t->t_end = t_end;
  const bool failed = t->failed;
  const bool cancelled = !failed && t->cancelled.load(std::memory_order_acquire);
  const bool poisoned = failed || cancelled;
  if (failed) {
    metrics_->add(m_.tasks_failed, 1, thread);
  } else if (cancelled) {
    metrics_->add(m_.tasks_cancelled, 1, thread);
  } else {
    metrics_->add(t->internal ? m_.redirects_executed : m_.tasks_executed, 1,
                  thread);
  }
  if (profiler_->trace_enabled() && !t->internal) {
    TaskRecord rec;
    rec.task_id = t->id();
    rec.t_create = t->t_create;
    rec.t_ready = t->t_ready;
    rec.t_start = t->t_start;
    rec.t_end = t->t_end;
    rec.thread = thread;
    rec.iteration = t->iteration;
    rec.label = t->label;
    profiler_->record(thread, rec);
  }
  // Depth-first handoff: the last successor to become ready is the one a
  // LIFO push would have this thread pop next, so it is kept for this
  // thread; any earlier one is queued as usual. Bodiless redirect nodes
  // run inline in enqueue_ready and are never held.
  Task* next = nullptr;
  const auto release = [&](Task* s) {
    // Poison before dropping the count: the release of fetch_sub publishes
    // the cancelled flag to whichever thread makes the successor ready.
    if (poisoned) s->cancelled.store(true, std::memory_order_release);
    if (s->npredecessors.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    if (!handoff || s->body.empty()) {
      enqueue_ready(s, thread, t_end);
      return;
    }
    if (next != nullptr) enqueue_ready(next, thread, t_end);
    next = s;
  };
  const bool frozen = t->successors_frozen();
  if (frozen) {
    // A replayed persistent task: nothing can add an edge any more, so the
    // list is read in place.
    for (Task* s : t->frozen_successors()) release(s);
  } else {
    const Task::SuccessorList succs =
        t->snapshot_successors_and_finish(t->persistent, poisoned);
    for (Task* s : succs) release(s);
  }
  if (next != nullptr) {
    if (next->timed) next->t_ready = t_end != 0 ? t_end : now_ns();
    metrics_->add(m_.spawns, 1, thread);
  }
  const bool keep = t->persistent;
  // A replayed instance re-arms its task for the next iteration; the
  // live-count decrement publishes the stores to the barrier. A discovery
  // instance stays finished until the region compiles its plan, so a late
  // edge to it is still recorded as one to a finished predecessor.
  if (frozen) t->rearm_persistent();
  live_done(thread);
  if (!keep) t->release();  // drop the self-reference
  return next;
}

void Runtime::run_acquired(Task* t, unsigned slot, bool stole, bool deferred,
                           RunningMark& mark, bool handoff) {
  if (stole) metrics_->add(m_.steals, 1, slot);
  if (!deferred) {
    // Deferred retries left the ready count when they were first taken;
    // don't decrement twice.
    metrics_->gauge_add(m_.ready_depth, -1, slot);
  }
  // Slots 1..num_threads()-1 are this pool's workers (current_slot), which
  // charge every task they run, handed-off successors included, to this
  // tenant; the foreign slot is not a worker. A shared pool's worker moves
  // on to other tenants, so it leaves no open span here.
  const bool worker = slot != 0 && slot != foreign_slot_;
  const bool stays = !worker || owned_pool_ != nullptr;
  if (timed_ && stays) profiler_->set_open_kind(slot, Profiler::Span::Busy);
  do {
    if (worker) pool_->note_served(slot - 1, tenant_id_);
    t = run_task(t, slot, handoff);
  } while (t != nullptr);
  // A shared pool reads the probe's start when ANY attached tenant is
  // timed, so the streak is only charged if this one is.
  if (!timed_ || mark.ns == 0) {
    mark.ns = 0;
    return;
  }
  if (stays) {
    mark.busy = true;
    return;
  }
  // One clock read charges the streak and starts the worker's next probe.
  const std::uint64_t now = now_ns();
  profiler_->charge(slot, Profiler::Span::Busy, mark.ns, now, /*open=*/false);
  mark.ns = now;
}

bool Runtime::try_execute_one(unsigned slot, bool handoff, RunningMark& mark) {
  if (timed_ && mark.ns == 0) open_mark(slot, mark);
  // Attribution sample, taken once up front: reading it after the failed
  // probes would flip genuine idle time into "overhead + steal failure"
  // whenever a task was enqueued and taken elsewhere mid-scan.
  const bool work_existed = ready_tasks() > 0;
  // Deferred-retry gate inlined here: one relaxed load on the common path
  // (nothing deferred); the queue scan only runs when a deadline is set.
  Task* t = next_deferred_ns_.load(std::memory_order_relaxed) != UINT64_MAX
                ? take_due_deferred()
                : nullptr;
  const bool deferred = t != nullptr;
  bool stole = false;
  if (t == nullptr) {
    if (slot == 0) {
      t = cfg_.policy == SchedulePolicy::DepthFirstLifo ? shard_.pop_front()
                                                        : shard_.pop_back();
    } else {
      // A foreign thread (nested runtime, external helper) must not touch
      // the Chase-Lev bottom; it competes through the steal CAS instead.
      t = shard_.steal();
    }
    if (t == nullptr) t = pop_inject();
    if (t == nullptr && pool_->num_workers() > 0) {
      // Self-help steal from the pool worker deques. Only this tenant's
      // tasks come back; foreign finds are rerouted to their owner.
      t = pool_->steal_for(this, producer_rng_);
      stole = t != nullptr;
    }
  }
  if (t == nullptr) {
    note_miss(slot, mark, work_existed);
    return false;
  }
  run_acquired(t, slot, stole, deferred, mark,
               handoff && cfg_.policy == SchedulePolicy::DepthFirstLifo);
  return true;
}

void Runtime::taskwait() {
  drain();
  // Failure order matters: a TaskGroupError must not be masked by a
  // verification report (and vice versa a clean drain may still carry a
  // determinacy race — the interleaving just happened to be benign).
  throw_if_failed();
  verify_now(/*allow_throw=*/true);
}

void Runtime::drain() {
  // A drain inside an open batch would wait forever on buffered tasks;
  // close the batch first (producer-only state, and drain is documented
  // producer-only).
  if (tls_runtime == this && batch_active_) end_batch();
  const unsigned slot = current_slot();
  arm_watchdog_baseline();
  Watchdog::Scope ws(&watchdog_, "taskwait");
  Backoff bo;
  RunningMark mark;
  while (live_sum() > 0) {
    if (try_execute_one(slot, /*handoff=*/true, mark)) {
      bo.reset();
    } else {
      // Spin-then-yield-then-sleep: the sleep tail is capped well below
      // the watchdog/poll cadence, so hooks stay serviced while an empty
      // wait stops burning the core the workers need.
      charged_wait(slot, mark, [&] {
        poll();
        ws.poll();
        bo.pause();
      });
    }
  }
  close_mark(slot, mark);  // back to the caller's own time
  // Everything submitted so far has completed: tasks on either side of
  // this point are ordered without an edge. The cutoff feeds the verifier
  // (taskwait separation) — dedup in the profiler keeps idle re-drains
  // free. drain() only runs on the producer, so the id read is exact.
  if (profiler_->capturing()) {
    profiler_->record_barrier(
        next_task_id_.load(std::memory_order_relaxed) - 1);
  }
}

void Runtime::verify_now(bool allow_throw) {
  if (cfg_.verify == VerifyMode::Off) return;
  // Every caller has just drained, so the last barrier cutoff is the last
  // task submitted: an unchanged cutoff means nothing new was captured.
  const std::uint64_t hi =
      profiler_->barriers().empty() ? 0 : profiler_->barriers().back();
  if (hi == verified_through_) return;
  // Only the window since the last verified barrier: that barrier orders
  // every pair straddling it, and pairs before it were checked already.
  // Every record captured since then belongs to a task after it, so the
  // unchecked suffix of each stream is the window; the check costs the
  // window, not the history.
  const std::uint64_t lo = verified_through_;
  verified_through_ = hi;
  const bool sample = cfg_.verify == VerifyMode::Sample;
  const Profiler::CaptureView w = profiler_->unchecked();
  const VerifyReport rep = verify_window(w.accesses, w.edges, w.barriers,
                                         w.scope_clears, lo, sample);
  // Sample mode keeps memory bounded by the window; a trace keeps the
  // full history for export, and post/strict keep it for verify_graph().
  profiler_->mark_checked(/*drop=*/sample && !profiler_->trace_enabled());
  madd(m_.verify_windows);
  madd(m_.verify_pairs, rep.pairs_checked);
  madd(m_.verify_races, rep.races_total);
  if (rep.ok()) return;
  if (cfg_.verify == VerifyMode::Strict && allow_throw) {
    throw VerifyError(rep.summary());
  }
  std::fprintf(stderr, "tdg: TDG verification FAILED:\n%s\n",
               rep.summary().c_str());
}

void Runtime::log_verify_clause(std::span<const Depend> deps) {
  if (region_ != nullptr) region_->log_clause(deps);
}

void Runtime::throw_if_failed() {
  if (!has_failures_.load(std::memory_order_acquire)) return;
  std::vector<TaskFailure> failures;
  std::vector<CancelledTask> cancelled;
  {
    SpinGuard g(failures_lock_);
    failures.swap(failures_);
    cancelled.swap(cancelled_);
    has_failures_.store(false, std::memory_order_relaxed);
  }
  throw TaskGroupError(std::move(failures), std::move(cancelled));
}

bool Runtime::throttled() {
  const auto& th = cfg_.throttle;
  if (th.max_ready != std::numeric_limits<std::size_t>::max() &&
      ready_tasks() > th.max_ready) {
    return true;
  }
  // A bound the signed count cannot reach (SIZE_MAX: unbounded) never
  // stalls; casting it would turn it negative and stall every submit.
  if (th.max_total >= static_cast<std::size_t>(
                          std::numeric_limits<std::int64_t>::max())) {
    return false;
  }
  const auto max_total = static_cast<std::int64_t>(th.max_total);
  const std::int64_t own = live_[0].n.load(std::memory_order_relaxed);
  if (own + others_bound_ <= max_total) return false;
  others_bound_ = live_others();
  return own + others_bound_ > max_total;
}

void Runtime::throttle(unsigned slot) {
  if (!throttled()) return;  // fast path: no stall, no watchdog arming
  madd(m_.throttle_stalls);
  arm_watchdog_baseline();
  Watchdog::Scope ws(&watchdog_, "throttle");
  Backoff bo;
  RunningMark mark;
  while (throttled()) {
    if (try_execute_one(slot, /*handoff=*/false, mark)) {
      bo.reset();
    } else {
      charged_wait(slot, mark, [&] {
        poll();
        ws.poll();
        bo.pause();
      });
      if (live_sum() <= 0) break;
    }
  }
  close_mark(slot, mark);  // back to discovery
}

void Runtime::poll() {
  HookBox hook;
  {
    SpinGuard g(hook_lock_);
    hook = polling_hook_;
  }
  if (!hook) return;
  // Plain thread-local stores, no RMW: they only let a hook that retires
  // itself skip waiting for its own call.
  struct Running {
    const PollingHookToken* outer = tls_running_hook;
    explicit Running(const PollingHookToken* h) { tls_running_hook = h; }
    ~Running() { tls_running_hook = outer; }
  } running(hook.get());
  (**hook)();
}

Runtime::PollingHookToken Runtime::set_polling_hook(
    std::function<void()> hook) {
  PollingHookToken p;
  HookBox box;
  if (hook) {
    p = std::make_shared<const std::function<void()>>(std::move(hook));
    box = std::make_shared<const PollingHookToken>(p);
  }
  {
    SpinGuard g(hook_lock_);
    std::swap(polling_hook_, box);
  }
  retire_hook(std::move(box));
  return p;
}

void Runtime::clear_polling_hook(const PollingHookToken& token) {
  if (token == nullptr) return;
  HookBox box;
  {
    SpinGuard g(hook_lock_);
    if (polling_hook_ != nullptr && *polling_hook_ == token) {
      std::swap(polling_hook_, box);
    }
  }
  retire_hook(std::move(box));
}


Event* Runtime::create_event() {
  SpinGuard g(events_lock_);
  events_.push_back(std::make_unique<Event>());
  return events_.back().get();
}

std::size_t Runtime::event_count() const {
  SpinGuard g(events_lock_);
  return events_.size();
}

Event* Runtime::current_task_event() const {
  return tls_current_task != nullptr ? tls_current_task->detach_event
                                     : nullptr;
}

void Runtime::release_producer() {
  // The runtimes constructed on this thread and not destroyed form a chain
  // through replaced_producer_, newest first. The newest hands the identity
  // back; an older one destroyed first leaves the chain, so the identity
  // never returns to a destroyed runtime.
  if (tls_runtime == this) {
    tls_runtime = replaced_producer_;
    return;
  }
  for (Runtime* r = tls_runtime; r != nullptr; r = r->replaced_producer_) {
    if (r->replaced_producer_ == this) {
      r->replaced_producer_ = replaced_producer_;
      return;
    }
  }
}

unsigned Runtime::current_slot() const {
  // Pool workers occupy slots 1..num_workers; the producer is slot 0 and
  // every other thread — external helpers, another runtime's producer or
  // workers — shares the foreign slot.
  if (pool_->on_pool_worker()) return 1 + WorkerPool::calling_slot();
  return tls_runtime == this ? 0 : foreign_slot_;
}

std::uint64_t Runtime::progress_epoch() const {
  const MetricsRegistry& m = *metrics_;
  return m.read(m_.tasks_executed) + m.read(m_.redirects_executed) +
         m.read(m_.tasks_failed) + m.read(m_.tasks_cancelled) +
         m.read(m_.task_retries);
}

void Runtime::arm_watchdog_baseline() {
  if (!watchdog_.enabled()) return;
  MetricsSnapshot snap = metrics_->snapshot();
  SpinGuard g(wd_baseline_lock_);
  wd_baseline_ = std::move(snap);
  wd_baseline_set_ = true;
}

void Runtime::runtime_diagnostic(std::string& out) const {
  out += "\n  tenant " + std::to_string(tenant_id_) +
         ": live tasks: " + std::to_string(live_tasks()) + " (ready " +
         std::to_string(ready_tasks()) + "; queued in shard " +
         std::to_string(shard_.size()) + ", inject " +
         std::to_string(inject_.approx_size()) + ")";
  {
    SpinGuard dg(deferred_lock_);
    if (!deferred_.empty()) {
      out += "\n  deferred retries: " + std::to_string(deferred_.size());
    }
  }
  // Discovery data layer: a producer wedged mid-discovery shows up here
  // (table growth, arena footprint), complementing the metric deltas below.
  out += "\n  discovery table: " +
         std::to_string(dep_map_.tracked_addresses()) + " addresses (cap " +
         std::to_string(dep_map_.table_capacity()) + ", " +
         std::to_string(dep_map_.rehash_count()) + " rehashes, " +
         std::to_string(dep_map_.arena_bytes()) + " bytes)";
  // Counter deltas since the stalled wait was armed: a hang report that
  // shows "0 steals, 0 completions since arming" pinpoints starvation vs
  // livelock at a glance.
  MetricsSnapshot now = metrics_->snapshot();
  bool have_baseline = false;
  {
    SpinGuard g(wd_baseline_lock_);
    if (wd_baseline_set_) {
      now = MetricsSnapshot::delta(now, wd_baseline_);
      have_baseline = true;
    }
  }
  std::ostringstream os;
  now.write_text(os, /*nonzero_only=*/true);
  out += have_baseline ? "\n  metrics delta since arming:\n"
                       : "\n  metrics:\n";
  out += os.str();
  SpinGuard g(events_lock_);
  std::size_t shown = 0;
  for (const auto& ev : events_) {
    if (ev->fulfilled() || ev->task_id() == 0) continue;
    out += "\n  unfulfilled detach event: task '";
    out += ev->task_label();
    out += "' (id " + std::to_string(ev->task_id()) + ")";
    if (++shown == 16) {
      out += "\n  (more unfulfilled events elided)";
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

RuntimeStats Runtime::stats() const {
  const MetricsRegistry& m = *metrics_;
  const RuntimeStats& base = stats_base_;
  RuntimeStats s;
  s.tasks_created = m.read(m_.tasks_submitted) - base.tasks_created;
  s.internal_nodes = dep_map_.total_stats().redirect_nodes;
  s.tasks_executed = m.read(m_.tasks_executed) +
                     m.read(m_.redirects_executed) - base.tasks_executed;
  s.tasks_failed = m.read(m_.tasks_failed) - base.tasks_failed;
  s.tasks_cancelled = m.read(m_.tasks_cancelled) - base.tasks_cancelled;
  s.task_retries = m.read(m_.task_retries) - base.task_retries;
  s.discovery = dep_map_.total_stats();
  s.discovery_begin_ns = discovery_begin_ns_;
  s.discovery_end_ns = discovery_end_ns_;
  return s;
}

void Runtime::reset_stats() {
  stats_base_ = RuntimeStats{};
  stats_base_ = stats();  // raw registry counts while the base is zero
  dep_map_.set_metrics_shard(current_slot());  // it flushes pending counts
  dep_map_.reset_total_stats();
  discovery_begin_ns_ = 0;
  discovery_end_ns_ = 0;
}

}  // namespace tdg
