// In-runtime profiler reproducing the methodology of Section 2.3.1:
// task create/schedule/complete traces with omp_get_wtime-style timestamps,
// and the parallel-time breakdown of Tallent & Mellor-Crummey adapted to
// dependent tasks — work (inside a task body), overhead (outside a body
// while ready tasks exist), idleness (outside a body with none ready).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/common.hpp"
#include "core/depend_types.hpp"
#include "core/metrics.hpp"

namespace tdg {

/// One executed task instance (one record per persistent-region iteration).
struct TaskRecord {
  std::uint64_t task_id = 0;
  std::uint64_t t_create = 0;  ///< ns, discovery timestamp
  std::uint64_t t_ready = 0;   ///< ns, last predecessor satisfied
  std::uint64_t t_start = 0;   ///< ns, body began
  std::uint64_t t_end = 0;     ///< ns, completion
  std::uint32_t thread = 0;    ///< executing thread slot
  std::uint32_t iteration = 0; ///< persistent-region iteration
  const char* label = "";
  std::int32_t rank = 0;       ///< owning rank (merged multi-rank traces)
};

/// One completed communication operation of the recording rank (trace mode
/// only). Matched send/recv records across ranks share (src, dst, tag, seq)
/// — per-stream non-overtaking means the nth send on a (peer, tag) stream
/// pairs with the nth receive — and become Perfetto message-flow arrows and
/// the cross-rank edges of the merged critical-path analysis.
struct CommRecord {
  enum class Kind : std::uint8_t { Send, Recv, Collective };
  Kind kind = Kind::Send;
  std::int32_t self = 0;          ///< recording rank
  std::int32_t peer = -1;         ///< dest for sends, src for recvs
  std::int32_t tag = -1;          ///< message tag (collective slot id)
  std::uint64_t seq = 0;          ///< 1-based per-(src,dst,tag) stream seq
  std::uint64_t bytes = 0;
  std::uint64_t t_post = 0;       ///< ns, operation posted
  std::uint64_t t_complete = 0;   ///< ns, request completed
  std::uint32_t retransmits = 0;  ///< universe retransmit total at complete
  std::uint64_t task_id = 0;      ///< owning detach task (0 = none)
};

/// One discovered dependence edge, by task id (captured; feeds the TDG
/// verifier, the Perfetto flow arrows and the critical-path analysis).
struct TraceEdge {
  std::uint64_t pred = 0;
  std::uint64_t succ = 0;
};

/// One depend-clause item of one submitted task (captured; feeds the TDG
/// soundness verifier and the depend-clause lint). Addresses are erased
/// to integers — the verifier only needs identity, never dereferences.
struct AccessRecord {
  std::uint64_t task_id = 0;
  std::uint64_t addr = 0;
  DependType type = DependType::In;
  std::uint32_t bytes = 0;  ///< clause extent annotation (0 = identity only)
  const char* label = "";
};

/// Per-thread cumulative time split, in seconds.
struct ThreadBreakdown {
  double work = 0;
  double overhead = 0;
  double idle = 0;
};

/// Aggregated breakdown over the team (Fig. 2(c) / Fig. 6 / Fig. 7 style).
struct Breakdown {
  std::vector<ThreadBreakdown> per_thread;
  double work = 0;      ///< cumulated seconds on all threads
  double overhead = 0;
  double idle = 0;
  double avg_work = 0;  ///< averaged per thread
  double avg_overhead = 0;
  double avg_idle = 0;
};

/// Timing sample: the task instances whose boundaries a timed runtime
/// stamps when it is not tracing (a trace stamps every task). One in
/// kTimingSampleRate, picked by a hash of the id so the sample does not
/// alias with periodic task patterns, plus id 1 — a runtime's first task —
/// so that even a tiny graph has one timed body. A persistent task's
/// replay in `iteration` k > 0 is drawn again with k in the key: a replayed
/// graph keeps its ids, and a fixed subset of it would bias the work
/// estimate for the whole run (LULESH's first task is its one heavy
/// reduction). A pure function of the instance, so two runs time the same
/// tasks.
inline constexpr std::uint64_t kTimingSampleRate = 16;
inline bool timing_samples_task(std::uint64_t id,
                                std::uint32_t iteration = 0) {
  if (iteration == 0 && id == 1) return true;
  const std::uint64_t key = id ^ (std::uint64_t{iteration} << 40);
  return mix64(key) % kTimingSampleRate == 0;
}

/// A thread's running mark: the stamp that ended its last charged span
/// (0: none, so its next probe starts one); whether tasks ran since, so
/// the span so far is busy; and the ready sample of its last missed
/// probe, which also classifies the wait that follows it.
struct RunningMark {
  std::uint64_t ns = 0;
  bool busy = false;
  bool work_existed = false;
};

/// Event collector. The breakdown is a ledger of per-thread spans in the
/// metrics registry, one shard per thread slot (a single-writer add per
/// span): `time.busy_ns` (work plus overhead) and `time.idle_ns` are
/// exact; work is estimated from the timed bodies (`time.sampled_work_ns`
/// over `time.sampled_tasks`, of `time.tasks` bodies run), and is exact
/// when tracing, where every body is timed. Full task tracing is opt-in,
/// as in the paper where tracing costs 0-5% and is bounded by DRAM
/// capacity. Each thread slot records into its own trace buffer; threads
/// without a slot (external threads fulfilling a detach event) share one
/// more buffer behind a spin lock.
///
/// Two levels of recording: trace mode keeps per-task timing records and
/// comm records; capture keeps only the discovery streams the verifier
/// reads (accesses, edges, barriers, scope clears). Trace mode implies
/// capture; a verify mode turns on capture alone.
class Profiler {
 public:
  /// One thread slot per registry shard. The registry must outlive the
  /// profiler.
  explicit Profiler(MetricsRegistry& metrics, bool trace_enabled = false,
                    bool capture = false);

  bool trace_enabled() const { return trace_enabled_; }
  /// Are the access/edge/barrier/scope-clear streams being recorded?
  bool capturing() const { return capture_ || trace_enabled_; }

  // --- the ledger, written by the executing threads ----------------------
  // `thread` is the calling thread's slot and registry shard: 0 is the
  // producer, 1..n-1 the pool workers, and n (any slot past the registry's
  // shards) every other thread. The breakdown reports slot n's time under
  // slot 0, where those threads were counted before they had a slot.
  //
  // A single-writer slot also publishes its open span — where its running
  // mark stands — behind a per-slot sequence counter, so breakdown()
  // counts every span up to the moment of the read, and the difference of
  // two reads covers exactly the window between them.

  /// What a span is: busy (running tasks, or probing while ready work
  /// existed — work plus overhead) or idle.
  enum class Span : std::uint8_t { Busy, Idle };
  /// Charge [from, to) on `thread` as `kind`. With `open` the thread goes
  /// on charging here (a solo runtime's worker, a producer inside a wait):
  /// `to` starts its open span, of the same kind until set_open_kind says
  /// otherwise. Without, it has no open span.
  void charge(unsigned thread, Span kind, std::uint64_t from,
              std::uint64_t to, bool open);
  /// Open a span at `at` without charging (a producer entering a wait).
  void open(unsigned thread, std::uint64_t at) {
    charge(thread, Span::Busy, at, at, /*open=*/true);
  }
  /// Close `thread`'s open span without charging more (a producer
  /// returning to discovery, whose last span ended at its last charge).
  void close(unsigned thread) { charge(thread, Span::Busy, 0, 0, false); }
  /// The kind of `thread`'s open span once it is known (a streak of tasks
  /// starts); breakdown() reads it for a span still open.
  void set_open_kind(unsigned thread, Span kind) {
    if (thread < num_slots_) {
      open_[thread].idle.store(kind == Span::Idle, std::memory_order_relaxed);
    }
  }
  /// One task body run on `thread`; `body_ns` is its length when `timed`.
  void note_body(unsigned thread, bool timed, std::uint64_t body_ns) {
    metrics_.add(time_[kTasks], 1, thread);
    if (!timed) return;
    metrics_.add(time_[kSampled], 1, thread);
    metrics_.add(time_[kSampledWork], body_ns, thread);
  }

  /// Record a completed task instance (trace mode only). `thread` is the
  /// calling thread's slot, as for the accumulators.
  void record(unsigned thread, const TaskRecord& rec);

  /// Record a discovered dependence edge (capture only). Called from
  /// the producer thread only — discovery is sequential — so the edge log
  /// is unsynchronized; read it post-mortem.
  void record_edge(std::uint64_t pred, std::uint64_t succ);

  /// Record a task's depend clause (capture only, producer thread only,
  /// same discipline as record_edge). `label` must outlive the profiler.
  void record_accesses(std::uint64_t task_id, const char* label,
                       const Depend* deps, std::size_t n);

  /// Record a taskwait barrier: every task with id <= max_task_id completed
  /// before any later task was submitted. Producer thread only; consecutive
  /// identical cutoffs are deduplicated.
  void record_barrier(std::uint64_t max_task_id);

  /// Record a dependency-scope clear: the access history was dropped, so
  /// no dependence is required between tasks with id <= max_task_id and
  /// later ones. Producer thread only; consecutive duplicates dropped.
  void record_scope_clear(std::uint64_t max_task_id);

  /// Record a completed communication operation (trace mode only).
  /// Thread-safe: the request poller fires from whichever worker hits the
  /// polling hook, so the comm ring has its own lock.
  void record_comm(const CommRecord& rec);

  // --- post-mortem analysis ----------------------------------------------
  Breakdown breakdown() const;
  /// All records, merged and sorted by start time.
  std::vector<TaskRecord> merged_trace() const;
  /// Dependence edges logged during discovery (capture only).
  const std::vector<TraceEdge>& edges() const { return edges_; }
  /// Depend-clause items logged during discovery (capture only).
  const std::vector<AccessRecord>& accesses() const { return accesses_; }
  /// Taskwait cutoffs (max task id submitted before each barrier).
  const std::vector<std::uint64_t>& barriers() const { return barriers_; }
  /// Dependency-scope clear cutoffs (max task id before each clear).
  const std::vector<std::uint64_t>& scope_clears() const {
    return scope_clears_;
  }
  /// Completed comm operations, in recording order (copies under the comm
  /// ring lock — safe while the poller is still recording).
  std::vector<CommRecord> comm_records() const;

  /// Rank identity stamped into exported traces. Set once by the comm-
  /// aware request poller; stays 0 for single-process runtimes.
  void set_rank(int rank) { rank_.store(rank, std::memory_order_relaxed); }
  int rank() const { return rank_.load(std::memory_order_relaxed); }

  /// A suffix of each captured stream.
  struct CaptureView {
    std::span<const AccessRecord> accesses;
    std::span<const TraceEdge> edges;
    std::span<const std::uint64_t> barriers;
    std::span<const std::uint64_t> scope_clears;
  };
  /// The records appended since the last mark_checked() (the whole
  /// streams before the first mark and after reset()). Producer thread
  /// only.
  CaptureView unchecked() const;

  /// Everything captured so far has been checked: later unchecked() views
  /// start past it. With `drop` the checked records are freed instead,
  /// keeping only the last barrier (bounds capture memory by one taskwait
  /// window). Producer thread only.
  void mark_checked(bool drop);

  /// Zero the breakdown (through a baseline; the registry counters keep
  /// counting) and drop the traces, between experiment phases.
  void reset();

 private:
  enum : std::size_t { kBusy, kIdle, kTasks, kSampled, kSampledWork, kNum };
  /// A slot's ledger totals, its open span counted up to the read.
  using TimeNs = std::array<std::uint64_t, kNum>;
  struct alignas(kCacheLine) TraceBuf {
    std::vector<TaskRecord> records;
    SpinLock lock;  ///< taken on the shared buffer only
  };
  /// A single-writer slot's open span. `seq` is odd while its writer
  /// charges a span, so a reader that sees it even and unchanged around
  /// its reads saw the busy/idle totals and `since` of one instant.
  struct alignas(kCacheLine) OpenSpan {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> since{0};  ///< 0: no open span
    std::atomic<bool> idle{false};
  };
  /// Registry totals of one thread slot plus its open span up to now.
  TimeNs time_ns(unsigned thread) const;

  const bool trace_enabled_;
  const bool capture_;
  std::atomic<int> rank_{0};
  MetricsRegistry& metrics_;
  std::array<MetricsRegistry::Id, kNum> time_;
  std::vector<TimeNs> time_base_;  ///< per-slot totals at the last reset()
  /// The single-writer slots (the registry's shards), whose spans are
  /// published; the shared slot's are charged whole.
  const unsigned num_slots_;
  std::unique_ptr<OpenSpan[]> open_;
  /// One buffer per thread slot, then the shared one.
  std::vector<TraceBuf> trace_;
  std::vector<TraceEdge> edges_;
  std::vector<AccessRecord> accesses_;
  std::vector<std::uint64_t> barriers_;
  std::vector<std::uint64_t> scope_clears_;
  /// Stream sizes at the last mark_checked(): where unchecked() begins.
  std::array<std::size_t, 4> checked_{};
  mutable SpinLock comm_lock_;  // record_comm runs on any worker thread
  std::vector<CommRecord> comms_;
};

}  // namespace tdg
