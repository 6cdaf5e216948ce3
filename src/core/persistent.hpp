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
// At the end of the first iteration the region compiles the discovered
// graph into a flat structure-of-arrays replay plan: creation-order task
// pointers with precomputed firstprivate copy descriptors (dst, bytes) for
// the replay path, and precomputed re-arm predecessor counts / completion
// latches for the barrier path. begin_iteration / end_iteration then become
// linear sweeps over these arrays — no per-task branching on internal/
// detach state, no pointer chasing beyond the task itself.
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
  /// Implicit barrier: waits for every task of the iteration, then re-arms
  /// refcounts for the next one.
  void end_iteration();

  std::uint32_t iterations_done() const { return iterations_done_; }
  std::size_t task_count() const { return tasks_.size(); }
  bool discovering() const { return iterations_done_ == 0 && active_; }

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

  /// One compiled replay slot, handed to Runtime::replay_submit_erased.
  /// copy_dst is the task's stored-capture address: the submit site, which
  /// knows whether the capture is trivially copyable, either memcpys into
  /// it or goes through the type-erased update dispatch.
  struct ReplayRef {
    Task* task;
    void* copy_dst;
    std::uint32_t copy_bytes;
  };

  static constexpr std::size_t kMaxDriftFindings = 16;

  void record_task(Task* t);        // first-iteration discovery
  /// Replay-safety check (called from the submit template via
  /// Runtime::log_verify_clause when verification is on): the discovery
  /// iteration stores each clause, a replay compares its clause with the
  /// stored one of its slot. Equal clauses require exactly the pairs that
  /// the discovery window was verified against, so nothing is re-derived.
  void log_clause(std::span<const Depend> deps);
  /// Build the SoA replay plan from the discovered graph (end of the
  /// first iteration, after the barrier drained every task).
  void compile_replay_plan();
  ReplayRef next_replay_slot();     // later iterations
  void rearm_all();                 // refcounts for the next iteration

  Runtime& rt_;
  std::vector<Task*> tasks_;        // creation order; holds references
  std::size_t replayed_ = 0;        // user tasks replayed this iteration
  std::uint32_t iterations_done_ = 0;
  bool active_ = false;
  std::vector<double> discovery_seconds_;

  // Compiled replay plan (built once, at first-iteration end).
  // Replay sweep: non-internal tasks in creation order — the producer's
  // replay submissions map 1:1 onto these slots.
  std::vector<Task*> plan_tasks_;
  std::vector<void*> plan_copy_dst_;
  std::vector<std::uint32_t> plan_copy_bytes_;
  std::uint64_t plan_bytes_ = 0;  // capture bytes one replay iteration copies
  // Re-arm sweep: parallel to tasks_ (internal nodes included).
  // npred = persistent_indegree + discovery guard (0 for internal nodes,
  // which are not re-submitted); latch = 2 with a detach event, else 1.
  std::vector<std::int32_t> rearm_npred_;
  std::vector<std::int32_t> rearm_latch_;

  // Replay-safety reference (only populated when the runtime verifies):
  // the discovery iteration's clauses, flat, with the end offset of each
  // slot's clause.
  std::vector<Depend> plan_clauses_;
  std::vector<std::uint32_t> plan_clause_end_;
  std::vector<ReplayDriftFinding> last_drift_;
};

}  // namespace tdg
