// Post-mortem analysis over an executed TDG trace: critical-path
// extraction, parallelism profiling, and a discovery-vs-execution overlap
// metric. All functions are pure — they consume the TaskRecord/TraceEdge
// streams of the profiler (or a parsed trace file) and allocate their own
// results, so benches, tests and the tdg-trace CLI share one code path.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/profiler.hpp"

namespace tdg {

/// One task on the critical path.
struct CriticalPathNode {
  std::uint64_t task_id = 0;
  std::string label;
  std::uint64_t t_start = 0;
  std::uint64_t t_end = 0;
  std::int32_t rank = 0;  ///< owning rank (merged multi-rank traces)

  double seconds() const {
    return static_cast<double>(t_end - t_start) * 1e-9;
  }
};

/// The longest (by summed body duration) dependence chain of an executed
/// TDG, i.e. the lower bound on makespan at infinite parallelism.
struct CriticalPath {
  std::vector<CriticalPathNode> nodes;  ///< in execution order
  double length_seconds = 0;  ///< sum of node durations along the path
  double span_seconds = 0;    ///< wall span of the whole trace
  /// Per-label seconds contributed to the path, descending.
  std::vector<std::pair<std::string, double>> label_seconds;
  /// Number of rank changes along the path — each one is a communication
  /// edge the path traversed (0 for single-rank traces).
  std::size_t comm_hops = 0;

  /// span / length: an upper bound on achievable speedup relative to the
  /// observed schedule (1.0 = execution was critical-path bound).
  double slack_ratio() const {
    return length_seconds > 0 ? span_seconds / length_seconds : 0.0;
  }
};

/// Compute the critical path. Edges whose endpoints have no record are
/// ignored; a cyclic edge set (malformed input) throws tdg::UsageError.
/// For a merged multi-rank trace whose edge set includes the derived
/// cross-rank message edges, the path traverses them like any dependence
/// edge and reports the crossings as comm_hops.
CriticalPath critical_path(std::span<const TaskRecord> records,
                           std::span<const TraceEdge> edges);

/// Cross-rank task edges, send task -> receive task, for every matched
/// message (match_messages, core/trace_export.hpp) with distinct task
/// attribution on both sides. merge_traces appends these to the merged
/// trace.
std::vector<TraceEdge> message_edges(std::span<const CommRecord> comms);

/// Concurrency histogram over time: how long exactly k task bodies ran
/// simultaneously.
struct ParallelismProfile {
  double span_seconds = 0;  ///< first start to last end
  double busy_seconds = 0;  ///< time with >= 1 body running
  double avg_concurrency = 0;  ///< time-weighted mean over the span
  std::uint32_t max_concurrency = 0;
  /// seconds_at[k] = seconds during which exactly k bodies were running
  /// (index 0 = gaps inside the span).
  std::vector<double> seconds_at;
};

ParallelismProfile parallelism_profile(std::span<const TaskRecord> records);

/// Fraction of the discovery window (first to last task creation) during
/// which at least one task body was executing — the paper's
/// discovery/execution overlap, computed from the trace alone. Returns 0
/// for traces with fewer than two records or a zero-width window.
double discovery_execution_overlap(std::span<const TaskRecord> records);

/// Communication wait attributed to the owning task's label: for each
/// label, how many tracked operations its tasks waited on and for how
/// long (receives and collectives; sends complete at post under eager /
/// store-and-forward staging and contribute their actual span). Sorted by
/// wait_seconds descending — the "top comm-blocked labels" view.
struct CommWaitEntry {
  std::string label;
  std::size_t ops = 0;
  std::uint64_t bytes = 0;
  double wait_seconds = 0;
};
std::vector<CommWaitEntry> comm_wait_by_label(
    std::span<const CommRecord> comms,
    std::span<const TaskRecord> records);

/// One row of the per-rank discovery/execution overlap matrix.
struct RankOverlap {
  std::int32_t rank = 0;
  std::size_t tasks = 0;
  double overlap = 0;       ///< discovery_execution_overlap of this rank
  double span_seconds = 0;  ///< first start to last end on this rank
  double busy_seconds = 0;  ///< time with >= 1 body running on this rank
  double comm_wait_seconds = 0;  ///< recv + collective wait on this rank
};

/// Split a (merged) trace by rank and compute each rank's overlap /
/// utilization / comm-wait row. Sorted by rank ascending.
std::vector<RankOverlap> rank_overlap_matrix(
    std::span<const TaskRecord> records,
    std::span<const CommRecord> comms = {});

}  // namespace tdg
