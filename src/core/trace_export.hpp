// Trace export/import for the profiler's TaskRecord stream.
//
// The one trace format is the Chrome/Perfetto trace-event JSON format
// (https://ui.perfetto.dev loads it directly): one track per thread, one
// "X" (complete) slice per executed task with id/iteration/latency args,
// flow arrows ("s"/"f" pairs) along discovered dependence edges, and a
// counter track of the number of concurrently-running tasks.
//
// The format is lossless: parse_perfetto gives back every field the
// writer was handed, absolute nanoseconds included (tests round-trip it;
// the tdg-trace CLI and the post-mortem analysis in core/analysis.hpp
// consume the result), so every emitted trace is also an analysis input.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/profiler.hpp"

namespace tdg {

struct PerfettoOptions {
  /// Base process-id track. Each task slice lands on pid + record.rank and
  /// each comm slice on its recording rank, so a single-rank runtime sets
  /// pid to its rank (records carry rank 0) while the merged multi-rank
  /// timeline keeps pid 0 and per-record ranks.
  int pid = 0;
};

/// One message matched across ranks: the indices, in the comm stream
/// that was matched, of its send record and its receive record.
struct MessagePair {
  std::size_t send = 0;
  std::size_t recv = 0;
};

struct MessageMatch {
  std::vector<MessagePair> pairs;  ///< by (src, dst, tag, seq)
  std::size_t unmatched = 0;       ///< send/recv records left unpaired
};

/// The one pairing rule of the distributed trace. A send and a receive
/// are the same message when they share its identity (src, dst, tag,
/// seq): the sender numbers each stream once and a receive reports the
/// number of the message it got (mpi::Request::trace_seq). seq 0
/// (unnumbered) and collectives are skipped. Each key pairs its first
/// send with its first receive; a further record of a key — a receive
/// of a duplicated message — and a key with one side only count as
/// unmatched. It lives with the writer, which every runtime links for its
/// teardown export, so the writer pulls in none of core/analysis.
MessageMatch match_messages(std::span<const CommRecord> comms);

/// Write records (+ optional dependence edges) as trace-event JSON.
/// Timestamps are normalized to the earliest record and expressed in
/// microseconds, as the format requires; that origin is kept as a
/// top-level `"otherData":{"t0_ns":"<decimal>"}` (a string, since
/// steady-clock nanoseconds exceed a double's 53-bit mantissa), so the
/// parser restores absolute nanoseconds.
///
/// The verification streams ride along when provided: each task's depend
/// clause is encoded as an `"accesses"` arg on its first slice
/// ("in:<hex>;out:<hex>;..."), and taskwait barriers / dependency-scope
/// clears become instant events carrying the cutoff task id. A trace
/// written with them can be re-verified offline (`tdg-trace verify`).
///
/// Comm records become "X" slices (cat "comm") on a dedicated per-rank
/// track; each message match_messages pairs adds an "s"/"f" flow pair
/// (cat "msg"), the arrows between rank tracks in the Perfetto UI.
void write_perfetto(std::ostream& os, std::span<const TaskRecord> records,
                    std::span<const TraceEdge> edges = {},
                    std::span<const AccessRecord> accesses = {},
                    std::span<const std::uint64_t> barriers = {},
                    std::span<const std::uint64_t> scope_clears = {},
                    std::span<const CommRecord> comms = {},
                    const PerfettoOptions& opts = {});

/// A parsed trace. Owns the label storage the records point into (the
/// pool is a deque so grown entries never relocate).
struct ParsedTrace {
  std::vector<TaskRecord> records;  ///< sorted by t_start
  std::vector<TraceEdge> edges;
  /// Depend-clause stream in submission order (task_id ascending, clause
  /// order preserved within a task); labels point into label_pool.
  std::vector<AccessRecord> accesses;
  std::vector<std::uint64_t> barriers;      ///< taskwait cutoffs, sorted
  std::vector<std::uint64_t> scope_clears;  ///< scope-clear cutoffs, sorted
  std::vector<CommRecord> comms;            ///< sorted by t_post
  std::deque<std::string> label_pool;

  /// Stable pointer to `label`'s copy in label_pool (added on first use).
  const char* intern(std::string_view label);
};

/// Parse trace-event JSON produced by write_perfetto (accepts both the
/// {"traceEvents": [...]} object form and a bare event array). Task and
/// comm timestamps get `otherData.t0_ns` added back; a bare array or an
/// object without it parses with t0 = 0. Throws tdg::UsageError on
/// malformed input — the round-trip tests use this as the well-formedness
/// check.
ParsedTrace parse_perfetto(std::istream& is);

}  // namespace tdg
