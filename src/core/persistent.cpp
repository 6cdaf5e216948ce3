#include "core/persistent.hpp"

#include <algorithm>
#include <sstream>

namespace tdg {

PersistentRegion::PersistentRegion(Runtime& rt) : rt_(rt) {
  TDG_REQUIRE(rt.region_ == nullptr,
              "nested persistent regions are not supported");
  rt_.region_ = this;
  // Replay-safety check: every replay's clauses are compared with the
  // discovery iteration's. Sample mode does not compare them.
  rt_.verify_clauses_ = rt_.config().verify == VerifyMode::Post ||
                        rt_.config().verify == VerifyMode::Strict;
}

PersistentRegion::~PersistentRegion() {
  // Barrier without the failure rethrow: destructors must not throw, and
  // any recorded failures stay pending for the next explicit taskwait().
  try {
    rt_.drain();
  } catch (const DeadlineError& e) {
    std::fprintf(stderr,
                 "tdg: persistent region destroyed while wedged:\n%s\n",
                 e.what());
    std::abort();
  }
  rt_.discovering_persistent_ = false;
  rt_.replay_active_ = false;
  rt_.region_ = nullptr;
  rt_.verify_clauses_ = false;
  for (Task* t : tasks_) {
    // Two references die with the region: its own (record_task) and the
    // task's self-reference, which complete_task deliberately keeps on
    // persistent tasks so the descriptor survives between replays.
    t->release();
    t->release();
  }
}

void PersistentRegion::begin_iteration() {
  TDG_REQUIRE(!active_, "begin_iteration called twice without end_iteration");
  active_ = true;
  if (iterations_done_ == 0) {
    // First iteration: normal discovery, tasks marked persistent. Start
    // from a clean dependency scope so no out-of-region predecessor leaks
    // into the cached graph.
    rt_.clear_dependency_scope();
    rt_.discovering_persistent_ = true;
  } else {
    // Every task re-armed itself as it completed. A detach event re-arms
    // here, after the barrier, not at its task's completion: a late
    // duplicate fulfill() or poison() of the previous iteration then finds
    // it fulfilled and is a no-op, instead of releasing this iteration's
    // latch.
    for (Event* ev : plan_events_) {
      ev->fulfilled_.store(false, std::memory_order_relaxed);
    }
    rt_.live_add(static_cast<std::int64_t>(tasks_.size()));
    rt_.replay_active_ = true;
    replayed_ = 0;
    last_drift_.clear();  // findings accumulate slot by slot
  }
  rt_.discovery_begin_ns_ = 0;  // per-iteration discovery span
  rt_.discovery_end_ns_ = 0;
}

void PersistentRegion::end_iteration() {
  TDG_REQUIRE(active_, "end_iteration without begin_iteration");
  if (iterations_done_ > 0) {
    // A replay miscount leaves un-replayed tasks holding their discovery
    // guard — the graph is wedged, not recoverable: stays a fatal check.
    TDG_CHECK(replayed_ == plan_tasks_.size(),
              "persistent region replayed a different number of tasks than "
              "it discovered");
    // The replay path counts nothing per task: the iteration's totals come
    // from the plan.
    rt_.madd(rt_.m_.replay_tasks, replayed_);
    rt_.madd(rt_.m_.replay_bytes, plan_bytes_);
  }
  // Implicit barrier (Section 3.2): every task of iteration n completes
  // before iteration n+1 is instantiated; inter-iteration edges never
  // exist. Drain without throwing: the region's bookkeeping below must run
  // even when tasks failed, so the region stays reusable — the aggregated
  // TaskGroupError is thrown at the end of this call.
  rt_.drain();
  discovery_seconds_.push_back(rt_.stats().discovery_seconds());
  if (iterations_done_ == 0) {
    // Discovery is over: release the access history (it holds references
    // into the cached graph) and compile the flat replay plan the later
    // iterations sweep over.
    rt_.discovering_persistent_ = false;
    rt_.clear_dependency_scope();
    compile_replay_plan();
  }
  rt_.replay_active_ = false;
  rt_.madd(rt_.m_.iterations);
  ++iterations_done_;
  active_ = false;
  // Rethrow after the region state is consistent: a failed iteration's
  // tasks re-armed themselves as they completed and can be replayed.
  rt_.throw_if_failed();
  // The implicit barrier checks its window as taskwait does. A replay adds
  // no task ids, so only the discovery iteration has one to check.
  rt_.verify_now(/*allow_throw=*/true);
  // Drift findings were recorded slot by slot during the iteration; they
  // are raised here, after the barrier and bookkeeping above, so the
  // region stays consistent either way.
  if (!last_drift_.empty()) {
    std::string report = "PTSG replay drift detected:";
    for (const ReplayDriftFinding& f : last_drift_) {
      report += "\n  " + f.message;
    }
    if (rt_.config().verify == VerifyMode::Strict) {
      throw VerifyError(std::move(report));
    }
    std::fprintf(stderr, "tdg: %s\n", report.c_str());
  }
}

void PersistentRegion::record_task(Task* t) {
  t->retain();
  tasks_.push_back(t);
}

void PersistentRegion::log_clause(std::span<const Depend> deps) {
  if (!active_) return;  // submissions outside an iteration: not ours
  if (iterations_done_ == 0) {
    plan_clauses_.insert(plan_clauses_.end(), deps.begin(), deps.end());
    plan_clause_end_.push_back(
        static_cast<std::uint32_t>(plan_clauses_.size()));
    return;
  }
  // One submit too many: next_replay_task aborts right after this hook.
  const std::size_t slot = replayed_;
  if (slot >= plan_clause_end_.size()) return;
  const std::uint32_t begin = slot == 0 ? 0 : plan_clause_end_[slot - 1];
  const std::span<const Depend> ref(plan_clauses_.data() + begin,
                                    plan_clause_end_[slot] - begin);
  if (std::ranges::equal(ref, deps) ||
      last_drift_.size() >= kMaxDriftFindings) {
    return;
  }
  std::ostringstream os;
  auto print = [&os](std::span<const Depend> clause) {
    os << '{';
    for (std::size_t j = 0; j < clause.size(); ++j) {
      if (j != 0) os << ", ";
      os << dep_type_name(clause[j].type) << "(0x" << std::hex
         << reinterpret_cast<std::uintptr_t>(clause[j].addr) << std::dec;
      if (clause[j].bytes != 0) os << '+' << clause[j].bytes;
      os << ')';
    }
    os << '}';
  };
  os << "clause drift at slot " << slot << ": ";
  print(ref);
  os << " at discovery vs ";
  print(deps);
  os << " at replay -- the cached plan no longer matches the program";
  last_drift_.push_back(ReplayDriftFinding{slot, os.str()});
}

void PersistentRegion::compile_replay_plan() {
  for (Task* t : tasks_) {
    // Discovery is over and the access history is cleared: no edge can
    // reach the task again, so replays read its successor list in place,
    // and the task can re-arm itself from here on.
    t->freeze_successors();
    t->rearm_persistent();
    if (t->detach_event != nullptr) plan_events_.push_back(t->detach_event);
    if (t->internal) continue;
    plan_tasks_.push_back(t);
    plan_bytes_ += t->body.capture_bytes();
  }
}

}  // namespace tdg
