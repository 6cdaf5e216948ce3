// Cross-rank trace stitching: combine N per-rank trace files into one
// global timeline (the `tdg-trace merge` command).
//
// Each rank timestamps with its own monotonic clock, so the stitcher
// estimates per-rank clock offsets from matched send/recv pairs the way
// TaskTorrent's post-mortem tooling does: the minimum observed one-way
// delay in each direction bounds the skew, and with traffic in both
// directions the offset is the half-difference of the two minima. Offsets
// propagate over a BFS spanning tree of the message graph rooted at the
// lowest-numbered rank; a final causality pass shifts ranks forward until
// no matched message completes before it was posted.
#pragma once

#include <cstdint>
#include <vector>

#include "core/trace_export.hpp"

namespace tdg {

struct MergeOptions {
  /// Estimate and apply per-rank clock offsets (off = trust raw clocks).
  bool estimate_clock_offsets = true;
};

struct MergeResult {
  /// The stitched trace: records/comms from every input with rebased
  /// timestamps, per-record ranks, globally unique task ids, and the
  /// cross-rank message edges appended to `trace.edges`.
  /// Barriers and scope clears are intentionally dropped — a per-rank
  /// submission-order cutoff is meaningless across ranks.
  ParsedTrace trace;
  std::vector<int> ranks;               ///< rank resolved for each input
  std::vector<std::int64_t> offset_ns;  ///< clock offset subtracted, per input
  /// Send task -> receive task for every matched message with task
  /// attribution on both sides (message_edges); also in trace.edges.
  std::vector<TraceEdge> cross_rank_edges;
  /// The merged comm stream through match_messages.
  std::size_t matched_messages = 0;
  std::size_t unmatched_messages = 0;
};

/// Task-id remapping stride: input task id N of rank r becomes
/// (r + 1) << 40 | N, keeping ids unique across ranks, nonzero, and well
/// inside double precision (Perfetto JSON numbers survive a round-trip).
inline constexpr std::uint64_t kMergeRankStride = std::uint64_t{1} << 40;

/// Stitch per-rank traces into one global timeline. The rank of each
/// input is taken from its comm records (every record of a per-rank file
/// carries the same recording rank), falling back to the records' rank
/// column and finally to the input's position.
MergeResult merge_traces(std::vector<ParsedTrace> inputs,
                         const MergeOptions& opts = {});

}  // namespace tdg
