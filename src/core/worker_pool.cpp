#include "core/worker_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>

#include "core/env.hpp"
#include "core/runtime.hpp"
#include "core/task.hpp"

namespace tdg {

thread_local WorkerPool* WorkerPool::tls_pool = nullptr;
thread_local unsigned WorkerPool::tls_pool_slot = 0;

namespace {
unsigned resolve_workers(unsigned n) {
  if (n != WorkerPool::kAutoWorkers) return n;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return hw - 1;  // the tenants' producer threads supply the rest
}

unsigned clamp_tenants(unsigned n) {
  if (n == 0) n = 1;
  return std::min(n, WorkerPool::kMaxTenantCap);
}
}  // namespace

WorkerPool::WorkerPool(Config cfg) : WorkerPool(cfg, nullptr) {}

WorkerPool::WorkerPool(Config cfg, Runtime* solo)
    : cfg_(cfg),
      solo_(solo),
      // A private pool's runtime prints its own report, so only a shared
      // pool reads the environment.
      metrics_dump_(solo == nullptr && read_env().metrics_dump),
      arena_(sizeof(Task), clamp_tenants(cfg.max_tenants)),
      tenants_(clamp_tenants(cfg.max_tenants)) {
  cfg_.max_tenants = static_cast<unsigned>(tenants_.size());
  cfg_.num_workers = resolve_workers(cfg_.num_workers);
  const unsigned nw = cfg_.num_workers;
  deques_.reserve(nw);
  for (unsigned i = 0; i < nw; ++i) {
    deques_.push_back(std::make_unique<WorkDeque>());
  }
  wstate_ = std::vector<WorkerState>(nw);
  for (unsigned i = 0; i < nw; ++i) {
    // Worker i occupies what used to be runtime slot i+1; seed the same
    // xorshift stream the pre-pool runtime used for that slot.
    wstate_[i].rng.store(0x9e3779b97f4a7c15ull * (i + 2) + 1,
                         std::memory_order_relaxed);
  }
  workers_.reserve(nw);
  for (unsigned i = 0; i < nw; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

WorkerPool::~WorkerPool() {
  TDG_CHECK(tenant_count_.load(std::memory_order_acquire) == 0,
            "WorkerPool destroyed with tenants still attached");
  shutdown_.store(true, std::memory_order_release);
  {
    // Serialize with a worker between its shutdown re-check and its cv
    // wait, then wake the whole team for the join.
    std::lock_guard<std::mutex> g(park_mu_);
  }
  park_cv_.notify_all();
  for (auto& w : workers_) w.join();
  if (metrics_dump_ && aggregate_any_) {
    std::string text;
    {
      std::ostringstream os;
      aggregate_.write_text(os, /*nonzero_only=*/true);
      text = os.str();
    }
    std::fprintf(stderr, "tdg: pool aggregate metrics at teardown:\n%s",
                 text.c_str());
  }
}

// ---------------------------------------------------------------------------
// Tenant lifecycle
// ---------------------------------------------------------------------------

unsigned WorkerPool::attach(Runtime* rt, const TenantOptions& opts) {
  SpinGuard g(tenants_lock_);
  unsigned id = static_cast<unsigned>(tenants_.size());
  for (unsigned i = 0; i < tenants_.size(); ++i) {
    // Acquire on both: everything the detacher and the last pinned
    // workers did to this slot (wd_token read, vruntime and served
    // charges) must happen-before the re-initialization below.
    if (tenants_[i].rt.load(std::memory_order_acquire) == nullptr &&
        !hazard_on(i)) {
      id = i;
      break;
    }
  }
  TDG_REQUIRE(id < tenants_.size(),
              "WorkerPool: tenant capacity exhausted (raise "
              "Config::max_tenants)");
  TenantSlot& slot = tenants_[id];
  slot.weight.store(std::max(1u, opts.weight),
                    std::memory_order_relaxed);
  // A newcomer starts at the minimum vruntime of the active tenants: it is
  // immediately the preferred victim (it has been served least) without
  // being owed the pool's entire service history.
  std::uint64_t vmin = UINT64_MAX;
  for (const TenantSlot& s : tenants_) {
    if (s.rt.load(std::memory_order_relaxed) != nullptr) {
      vmin = std::min(vmin, s.vruntime.load(std::memory_order_relaxed));
    }
  }
  slot.vruntime.store(vmin == UINT64_MAX ? 0 : vmin,
                      std::memory_order_relaxed);
  for (WorkerState& w : wstate_) {
    w.served[id].store(0, std::memory_order_relaxed);
  }
  // Per-tenant hang isolation: the pool state is appended to this tenant's
  // OWN watchdog report — a wedged tenant trips its own deadline with the
  // pool context attached, without flagging (or being masked by) siblings.
  // Solo runtimes keep the unlabelled report text they have always emitted.
  if (solo_ == nullptr) {
    rt->watchdog_.set_name("tenant " + std::to_string(id));
  }
  slot.wd_token = rt->watchdog_.add_diagnostic(
      [this](std::string& out) { diagnostic(out); });
  if (rt->timed_) timed_tenants_.fetch_add(1, std::memory_order_relaxed);
  slot.rt.store(rt, std::memory_order_seq_cst);
  const unsigned hi = tenant_high_.load(std::memory_order_relaxed);
  if (id + 1 > hi) tenant_high_.store(id + 1, std::memory_order_release);
  tenant_count_.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void WorkerPool::detach(unsigned id) {
  if (id >= tenants_.size()) return;
  TenantSlot& slot = tenants_[id];
  Runtime* rt = slot.rt.load(std::memory_order_relaxed);
  if (rt == nullptr) return;
  rt->watchdog_.remove_diagnostic(slot.wd_token);
  // Publish the vacancy, then wait out every worker still inside its
  // pinned window: either the worker's seq_cst rt load sees the nullptr,
  // or this seq_cst hazard load sees the worker's store (see pin).
  slot.rt.store(nullptr, std::memory_order_seq_cst);
  Backoff bo;
  while (hazard_on(id)) bo.pause();
  if (solo_ == nullptr && rt->metrics_->enabled()) {
    fold_aggregate(rt->metrics_->snapshot());
  }
  if (rt->timed_) timed_tenants_.fetch_sub(1, std::memory_order_relaxed);
  tenant_count_.fetch_sub(1, std::memory_order_relaxed);
}

void WorkerPool::fold_aggregate(const MetricsSnapshot& snap) {
  SpinGuard g(agg_lock_);
  if (!aggregate_any_) {
    aggregate_ = snap;
    aggregate_any_ = true;
  } else {
    aggregate_ = MetricsSnapshot::merge(aggregate_, snap);
  }
}

// ---------------------------------------------------------------------------
// Work publication
// ---------------------------------------------------------------------------

void WorkerPool::push_local(Task* t) {
  TDG_DCHECK(on_pool_worker(), "push_local from a non-pool thread");
  deques_[tls_pool_slot]->push_front(t);
}

void WorkerPool::wake_workers(std::size_t n, Runtime* waker) {
  if (n == 0) return;
  // A fence and one load on the hot publish path, no RMW on a shared line;
  // the mutex is only touched when somebody is actually parked. Taking
  // and dropping park_mu_ before notifying closes the race against a
  // worker that passed its re-check but has not yet entered cv.wait (it
  // holds the mutex for that window).
  store_load_fence();
  if (parked_.load(std::memory_order_relaxed) == 0) return;
  { std::lock_guard<std::mutex> g(park_mu_); }
  if (n == 1) {
    park_cv_.notify_one();
  } else {
    park_cv_.notify_all();
  }
  if (waker != nullptr) waker->madd(waker->m_.wakeups);
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

unsigned WorkerPool::rng_next(std::atomic<std::uint64_t>& state, unsigned n) {
  std::uint64_t x = state.load(std::memory_order_relaxed);
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  state.store(x, std::memory_order_relaxed);
  return static_cast<unsigned>(x % n);
}

Task* WorkerPool::poll_tenant(Runtime* r, bool& stole, bool& deferred) {
  Task* t = r->shard_.steal();
  if (t != nullptr) {
    stole = true;
    return t;
  }
  t = r->pop_inject();
  if (t != nullptr) return t;
  if (r->next_deferred_ns_.load(std::memory_order_relaxed) != UINT64_MAX) {
    t = r->take_due_deferred();
    if (t != nullptr) {
      deferred = true;
      return t;
    }
  }
  return nullptr;
}

Runtime* WorkerPool::pin(unsigned slot, unsigned id) {
  hold(slot, id);
  return tenants_[id].rt.load(std::memory_order_seq_cst);
}

void WorkerPool::hold(unsigned slot, unsigned id) {
  std::atomic<unsigned>& h = wstate_[slot].hazard;
  // A hazard already naming `id` was stored seq_cst and not changed since,
  // so it still precedes any later rt load.
  if (h.load(std::memory_order_relaxed) != id) {
    h.store(id, std::memory_order_seq_cst);
  }
}

void WorkerPool::unpin(unsigned slot) {
  wstate_[slot].hazard.store(kNoTenant, std::memory_order_release);
}

bool WorkerPool::hazard_on(unsigned id) const {
  for (const WorkerState& w : wstate_) {
    if (w.hazard.load(std::memory_order_seq_cst) == id) return true;
  }
  return false;
}

Task* WorkerPool::take_tenant_work(unsigned slot, Runtime*& owner,
                                   bool& stole, bool& deferred) {
  const unsigned hi = std::min<unsigned>(
      tenant_high_.load(std::memory_order_acquire),
      static_cast<unsigned>(tenants_.size()));
  if (hi == 0) return nullptr;
  // Weighted-fair scan: probe tenants in ascending-vruntime order, so the
  // least-served (per weight) tenant with backlog is preferred. The racy
  // vruntime reads only affect probe ORDER; every attached tenant is
  // probed at most once per scan (64-bit visited mask).
  std::uint64_t visited = 0;
  for (;;) {
    unsigned best = hi;
    std::uint64_t bestv = UINT64_MAX;
    for (unsigned i = 0; i < hi; ++i) {
      if ((visited >> i) & 1u) continue;
      TenantSlot& ts = tenants_[i];
      if (ts.rt.load(std::memory_order_relaxed) == nullptr) {
        visited |= 1ull << i;
        continue;
      }
      const std::uint64_t v = ts.vruntime.load(std::memory_order_relaxed);
      if (v <= bestv) {
        bestv = v;
        best = i;
      }
    }
    if (best >= hi) return nullptr;
    visited |= 1ull << best;
    // The hazard stays on the probed tenant: the next probe overwrites it,
    // a find keeps it for the execution, and a failed scan clears it in
    // try_execute_one.
    Runtime* r = pin(slot, best);
    Task* t = r != nullptr ? poll_tenant(r, stole, deferred) : nullptr;
    if (t != nullptr) {
      owner = r;
      return t;
    }
  }
}

Task* WorkerPool::steal_for(Runtime* self, std::atomic<std::uint64_t>& rng) {
  const unsigned n = static_cast<unsigned>(deques_.size());
  if (n == 0) return nullptr;
  const unsigned start = n > 1 ? rng_next(rng, n) : 0;
  for (unsigned k = 0; k < n; ++k) {
    WorkDeque& dq = *deques_[(start + k) % n];
    for (;;) {
      Task* t = dq.steal();
      if (t == nullptr) break;
      if (t->owner() == self) return t;
      // Tenant isolation: a self-helping producer never executes another
      // tenant's task. Hand it back through the owner's inject queue (it
      // stays findable by the fair scan) and keep probing this deque.
      t->owner()->push_inject(t);
      wake_workers(1, nullptr);
    }
  }
  return nullptr;
}

void WorkerPool::note_served(unsigned slot, unsigned id) {
  // Only this worker writes its counter: a plain load and store, no RMW.
  std::atomic<std::uint64_t>& n = wstate_[slot].served[id];
  n.store(n.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  if (tenant_count_.load(std::memory_order_relaxed) < 2) return;
  TenantSlot& ts = tenants_[id];
  ts.vruntime.fetch_add(
      kVrUnit / std::max(1u, ts.weight.load(std::memory_order_relaxed)),
      std::memory_order_relaxed);
}

std::uint64_t WorkerPool::served(unsigned id) const {
  if (id >= tenants_.size()) return 0;
  std::uint64_t total = 0;
  for (const WorkerState& w : wstate_) {
    total += w.served[id].load(std::memory_order_relaxed);
  }
  return total;
}

bool WorkerPool::try_execute_one(unsigned slot, RunningMark& mark) {
  Runtime* const s = solo_;
  // A private pool's worker charges every span to its runtime, so its
  // running mark never lapses (worker_loop starts it). A shared pool's
  // worker charges a tenant only the streaks it runs for it, from the
  // probe's start: it reads one here after a miss or an untimed streak,
  // and only when some attached tenant consumes it.
  if (s == nullptr && mark.ns == 0 &&
      timed_tenants_.load(std::memory_order_relaxed) > 0) {
    mark.ns = now_ns();
  }
  // Attribution sample, taken once up front: reading it after the failed
  // probes would flip genuine idle time into "overhead + steal failure"
  // whenever a task was enqueued and taken elsewhere mid-scan.
  const bool work_existed = s != nullptr && s->ready_tasks() > 0;
  Runtime* owner = nullptr;
  bool stole = false;
  bool deferred = false;
  // 1) Own deque: depth-first cache reuse — successors this worker pushed
  //    while completing its previous task.
  WorkDeque& own = *deques_[slot];
  Task* t = cfg_.policy == SchedulePolicy::DepthFirstLifo ? own.pop_front()
                                                          : own.pop_back();
  // 2) Weighted-fair tenant scan (shards, injects, due deferred retries).
  if (t == nullptr) t = take_tenant_work(slot, owner, stole, deferred);
  // 3) Randomized steal from sibling workers.
  if (t == nullptr && deques_.size() > 1) {
    const unsigned n = static_cast<unsigned>(deques_.size());
    const unsigned start = rng_next(wstate_[slot].rng, n - 1);
    for (unsigned k = 0; k < n - 1 && t == nullptr; ++k) {
      const unsigned v = (slot + 1 + (start + k) % (n - 1)) % n;
      t = deques_[v]->steal();
    }
    stole = t != nullptr;
  }
  if (t == nullptr) {
    unpin(slot);
    if (s != nullptr) {
      s->note_miss(1 + slot, mark, work_existed);
    } else {
      mark.ns = 0;  // a shared pool charges no miss and no wait
    }
    return false;
  }
  if (owner == nullptr) owner = t->owner();
  TDG_DCHECK(owner != nullptr, "pool task without an owning runtime");
  // The hazard names the owner for the WHOLE execution, not just the
  // poll, and stays until this worker moves on: run_task's
  // post-completion epilogue (overhead attribution, metrics) touches the
  // owner after the publication that lets its drain return, so an
  // unpinned epilogue races the tenant's destructor. The owner cannot
  // detach between acquiring the task and this store — the un-completed
  // task keeps its drain from returning — so no rt re-check is needed.
  hold(slot, owner->tenant_id_);
  owner->run_acquired(t, 1 + slot, stole, deferred, mark,
                      cfg_.policy == SchedulePolicy::DepthFirstLifo);
  return true;
}

void WorkerPool::poll_tenants(unsigned slot) {
  const unsigned hi = std::min<unsigned>(
      tenant_high_.load(std::memory_order_acquire),
      static_cast<unsigned>(tenants_.size()));
  for (unsigned i = 0; i < hi; ++i) {
    if (tenants_[i].rt.load(std::memory_order_relaxed) == nullptr) continue;
    Runtime* r = pin(slot, i);
    if (r != nullptr) r->poll();
  }
  unpin(slot);
}

void WorkerPool::park_worker(unsigned slot) {
  if (solo_ != nullptr) {
    solo_->metrics_->add(solo_->m_.parks, 1, 1 + slot);
  }
  std::unique_lock<std::mutex> lk(park_mu_);
  parked_.fetch_add(1, std::memory_order_seq_cst);
  // Dekker pairing with wake_workers (see the declaration): after this
  // fence, every queue a publisher pushed to before its own fence is seen
  // non-empty, or that publisher sees parked_ and notifies.
  store_load_fence();
  bool work = shutdown_.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < deques_.size() && !work; ++i) {
    work = !deques_[i]->empty();
  }
  // Bounded wait: parked workers still service the tenants' polling hooks
  // (MPI progress, held fault-injection deliveries) and deferred-retry
  // deadlines at this cadence.
  std::uint64_t wait_ns = 2'000'000;  // 2 ms
  const unsigned hi = std::min<unsigned>(
      tenant_high_.load(std::memory_order_acquire),
      static_cast<unsigned>(tenants_.size()));
  for (unsigned i = 0; i < hi && !work; ++i) {
    if (tenants_[i].rt.load(std::memory_order_relaxed) == nullptr) continue;
    Runtime* r = pin(slot, i);
    if (r == nullptr) continue;
    work = !r->shard_.empty() || !r->inject_.approx_empty();
    const std::uint64_t nd =
        r->next_deferred_ns_.load(std::memory_order_relaxed);
    if (nd != UINT64_MAX) {
      const std::uint64_t now = now_ns();
      wait_ns = nd > now ? std::min(wait_ns, nd - now) : 0;
    }
  }
  unpin(slot);
  if (!work && wait_ns > 0) {
    park_cv_.wait_for(lk, std::chrono::nanoseconds(wait_ns));
  }
  parked_.fetch_sub(1, std::memory_order_relaxed);
}

void WorkerPool::worker_loop(unsigned slot) {
  tls_pool = this;
  tls_pool_slot = slot;
  Backoff bo;
  // The worker's running mark. A private pool's runtime is timed or not
  // for its whole life, set before the pool starts its workers.
  RunningMark mark;
  if (solo_ != nullptr && solo_->timed_) solo_->open_mark(1 + slot, mark);
  while (true) {
    if (try_execute_one(slot, mark)) {
      bo.reset();
      continue;
    }
    if (shutdown_.load(std::memory_order_acquire)) break;
    auto wait = [&] {
      poll_tenants(slot);
      if (bo.should_park()) {
        park_worker(slot);
      } else {
        bo.pause();
      }
    };
    if (Runtime* const s = solo_; s != nullptr) {
      s->charged_wait(1 + slot, mark, wait);
    } else {
      wait();
    }
  }
  tls_pool = nullptr;
}

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

void WorkerPool::diagnostic(std::string& out) const {
  out += "\n  pool: " + std::to_string(num_workers()) + " workers, " +
         std::to_string(tenant_count()) + " tenants, " +
         std::to_string(parked()) + " parked, worker deque depths";
  for (const auto& dq : deques_) out += " " + std::to_string(dq->size());
  const unsigned hi = std::min<unsigned>(
      tenant_high_.load(std::memory_order_acquire),
      static_cast<unsigned>(tenants_.size()));
  for (unsigned i = 0; i < hi; ++i) {
    const TenantSlot& ts = tenants_[i];
    if (ts.rt.load(std::memory_order_relaxed) == nullptr) continue;
    out += "\n  pool tenant " + std::to_string(i) + ": served " +
           std::to_string(served(i)) +
           ", weight " +
           std::to_string(ts.weight.load(std::memory_order_relaxed)) +
           ", vruntime " +
           std::to_string(ts.vruntime.load(std::memory_order_relaxed) /
                          kVrUnit);
  }
}

}  // namespace tdg
