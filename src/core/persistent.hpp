// Persistent Task Sub-Graph (PTSG) — optimization (p), Section 3.2.
//
// The first iteration of an annotated loop discovers the TDG as usual but
// marks tasks persistent so they survive completion, and records *every*
// edge (edges to already-finished predecessors are not pruned, since no
// edge is recreated on later iterations). Subsequent iterations re-execute
// the producer's instruction flow, but each submit collapses to updating
// the cached task's firstprivate capture — a memcpy — and dropping its
// discovery guard. An implicit barrier ends every iteration, so no
// inter-iteration edges exist.
//
// At the end of the first iteration the region freezes every task's
// successor list and compiles the replay plan: the user tasks in creation
// order, one per replay submission, and the detach events. Each task then
// re-arms itself from its own fields (Task::rearm_persistent): once when
// the plan is compiled, and again as each replayed instance completes, so
// the barrier walks no tasks. begin_iteration only re-arms the detach
// events and counts the iteration's tasks as pending.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/runtime.hpp"

namespace tdg {

/// One replay slot whose depend clause differs from the discovery
/// iteration's: the cached graph no longer matches the program
/// (firstprivate-address drift, stale redirect nodes).
struct ReplayDriftFinding {
  std::size_t slot = 0;  ///< submission index within the iteration
  std::string message;   ///< names the slot and both clauses
};

/// RAII handle for a persistent-graph region (`#pragma omp ptsg` in the
/// paper). Usage:
///
///   PersistentRegion region(rt);
///   for (int it = 0; it < iters; ++it) {
///     region.begin_iteration();
///     ... submit the same task sequence, captures may differ ...
///     region.end_iteration();   // implicit barrier
///   }
///
/// Every iteration must submit the same tasks in the same order with the
/// same dependences (the count always; the clauses under verify post and
/// strict).
class PersistentRegion {
 public:
  explicit PersistentRegion(Runtime& rt);
  ~PersistentRegion();
  PersistentRegion(const PersistentRegion&) = delete;
  PersistentRegion& operator=(const PersistentRegion&) = delete;

  void begin_iteration();
  /// Implicit barrier: waits for every task of the iteration (each one
  /// re-armed itself for the next iteration as it completed).
  void end_iteration();

  std::uint32_t iterations_done() const { return iterations_done_; }
  std::size_t task_count() const { return tasks_.size(); }
  bool discovering() const { return iterations_done_ == 0 && active_; }
  /// Inside a replay iteration: submissions update cached tasks and their
  /// TaskOpts are ignored.
  bool replaying() const { return iterations_done_ > 0 && active_; }

  /// Per-iteration discovery durations in seconds (first = graph build,
  /// later = firstprivate update pass); Table 2's 0.86 s + 15 x 0.08 s.
  const std::vector<double>& discovery_seconds() const {
    return discovery_seconds_;
  }

  /// Replay-safety findings of the most recent replay iteration, at most
  /// kMaxDriftFindings (empty when every slot issued the discovery
  /// iteration's clause, or when the runtime's verify mode is Off or
  /// Sample). In Post mode the findings are also printed to stderr at
  /// end_iteration; Strict mode throws VerifyError there.
  const std::vector<ReplayDriftFinding>& last_drift() const {
    return last_drift_;
  }

 private:
  friend class Runtime;

  static constexpr std::size_t kMaxDriftFindings = 16;

  void record_task(Task* t);        // first-iteration discovery
  /// Replay-safety check (called from the submit template via
  /// Runtime::log_verify_clause when verification is on): the discovery
  /// iteration stores each clause, a replay compares its clause with the
  /// stored one of its slot. Equal clauses require exactly the pairs that
  /// the discovery window was verified against, so nothing is re-derived.
  void log_clause(std::span<const Depend> deps);
  /// Freeze and re-arm the discovered graph and build the replay plan
  /// (end of the first iteration, after the barrier drained every task).
  void compile_replay_plan();

  Runtime& rt_;
  std::vector<Task*> tasks_;        // creation order; holds references
  std::size_t replayed_ = 0;        // replay cursor into plan_tasks_
  std::uint32_t iterations_done_ = 0;
  bool active_ = false;
  std::vector<double> discovery_seconds_;

  // Compiled replay plan (built once, at first-iteration end).
  // Non-internal tasks in creation order: the producer's replay
  // submissions map 1:1 onto these slots.
  std::vector<Task*> plan_tasks_;
  std::uint64_t plan_bytes_ = 0;  // capture bytes one replay iteration copies
  // The detach events of the graph, re-armed at begin_iteration.
  std::vector<Event*> plan_events_;

  // Replay-safety reference (only populated when the runtime verifies):
  // the discovery iteration's clauses, flat, with the end offset of each
  // slot's clause.
  std::vector<Depend> plan_clauses_;
  std::vector<std::uint32_t> plan_clause_end_;
  std::vector<ReplayDriftFinding> last_drift_;
};

}  // namespace tdg
