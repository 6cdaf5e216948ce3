#include "core/profiler.hpp"

#include <algorithm>
#include <memory>

namespace tdg {

namespace {
/// The seqlock's fences. ThreadSanitizer does not model standalone fences
/// (GCC warns, -Wtsan) but still executes them; every access they order
/// is atomic, so no data race can hide behind them.
void seqlock_fence(std::memory_order order) {
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wtsan"
#endif
  std::atomic_thread_fence(order);
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
}
}  // namespace

Profiler::Profiler(MetricsRegistry& metrics, bool trace_enabled,
                   bool capture)
    : trace_enabled_(trace_enabled),
      capture_(capture),
      metrics_(metrics),
      time_{metrics.counter("time.busy_ns"), metrics.counter("time.idle_ns"),
            metrics.counter("time.tasks"),
            metrics.counter("time.sampled_tasks"),
            metrics.counter("time.sampled_work_ns")},
      time_base_(metrics.num_shards() + 1),
      num_slots_(metrics.num_shards()),
      open_(std::make_unique<OpenSpan[]>(num_slots_)),
      trace_(metrics.num_shards() + 1) {
  for (auto& tb : trace_) tb.records.reserve(1024);
  edges_.reserve(1024);
  if (capturing()) accesses_.reserve(1024);
}

void Profiler::charge(unsigned thread, Span kind, std::uint64_t from,
                      std::uint64_t to, bool open) {
  const MetricsRegistry::Id id = time_[kind == Span::Busy ? kBusy : kIdle];
  if (thread >= num_slots_) {
    metrics_.add(id, to - from, thread);  // shared slot: charged whole
    return;
  }
  // Seqlock writer (one thread per slot): odd while the total and the
  // open span move together.
  OpenSpan& o = open_[thread];
  const std::uint64_t seq = o.seq.load(std::memory_order_relaxed);
  o.seq.store(seq + 1, std::memory_order_relaxed);
  seqlock_fence(std::memory_order_release);
  metrics_.add(id, to - from, thread);
  o.since.store(open ? to : 0, std::memory_order_relaxed);
  o.idle.store(kind == Span::Idle, std::memory_order_relaxed);
  o.seq.store(seq + 2, std::memory_order_release);
}

Profiler::TimeNs Profiler::time_ns(unsigned thread) const {
  auto totals = [&] {
    TimeNs t{};
    for (std::size_t k = 0; k < kNum; ++k) {
      t[k] = metrics_.read(time_[k], thread);
    }
    return t;
  };
  if (thread >= num_slots_) return totals();
  const OpenSpan& o = open_[thread];
  for (Backoff bo;; bo.pause()) {
    const std::uint64_t seq = o.seq.load(std::memory_order_acquire);
    if ((seq & 1) != 0) continue;  // a charge is in flight
    TimeNs t = totals();
    const std::uint64_t since = o.since.load(std::memory_order_relaxed);
    const bool idle = o.idle.load(std::memory_order_relaxed);
    seqlock_fence(std::memory_order_acquire);
    if (o.seq.load(std::memory_order_relaxed) != seq) continue;
    // The open span counts up to now: a later read counts the rest, so
    // the difference of two reads clips every span to their window.
    if (since != 0) t[idle ? kIdle : kBusy] += now_ns() - since;
    return t;
  }
}

void Profiler::record(unsigned thread, const TaskRecord& rec) {
  if (!trace_enabled()) return;
  const std::size_t shared = trace_.size() - 1;
  if (thread < shared) {
    trace_[thread].records.push_back(rec);
    return;
  }
  TraceBuf& tb = trace_[shared];
  SpinGuard g(tb.lock);
  tb.records.push_back(rec);
}

void Profiler::record_edge(std::uint64_t pred, std::uint64_t succ) {
  if (!capturing()) return;
  edges_.push_back(TraceEdge{pred, succ});
}

void Profiler::record_accesses(std::uint64_t task_id, const char* label,
                               const Depend* deps, std::size_t n) {
  if (!capturing()) return;
  for (std::size_t i = 0; i < n; ++i) {
    accesses_.push_back(AccessRecord{
        task_id, reinterpret_cast<std::uint64_t>(deps[i].addr), deps[i].type,
        deps[i].bytes, label != nullptr ? label : ""});
  }
}

void Profiler::record_barrier(std::uint64_t max_task_id) {
  if (!capturing()) return;
  // Back-to-back taskwaits (or a taskwait with no intervening submissions)
  // carry no extra ordering information; keep the log minimal.
  if (!barriers_.empty() && barriers_.back() == max_task_id) return;
  barriers_.push_back(max_task_id);
}

void Profiler::record_scope_clear(std::uint64_t max_task_id) {
  if (!capturing()) return;
  if (!scope_clears_.empty() && scope_clears_.back() == max_task_id) return;
  scope_clears_.push_back(max_task_id);
}

void Profiler::record_comm(const CommRecord& rec) {
  if (!trace_enabled()) return;
  SpinGuard g(comm_lock_);
  comms_.push_back(rec);
}

std::vector<CommRecord> Profiler::comm_records() const {
  SpinGuard g(comm_lock_);
  return comms_;
}

Profiler::CaptureView Profiler::unchecked() const {
  return {std::span(accesses_).subspan(checked_[0]),
          std::span(edges_).subspan(checked_[1]),
          std::span(barriers_).subspan(checked_[2]),
          std::span(scope_clears_).subspan(checked_[3])};
}

void Profiler::mark_checked(bool drop) {
  if (drop) {
    accesses_.clear();
    edges_.clear();
    scope_clears_.clear();
    if (!barriers_.empty()) {
      barriers_.erase(barriers_.begin(), barriers_.end() - 1);
    }
  }
  checked_ = {accesses_.size(), edges_.size(), barriers_.size(),
              scope_clears_.size()};
}

Breakdown Profiler::breakdown() const {
  const unsigned shared = static_cast<unsigned>(time_base_.size()) - 1;
  std::vector<TimeNs> d(shared + 1);
  std::uint64_t sampled = 0;
  std::uint64_t sampled_ns = 0;
  for (unsigned i = 0; i <= shared; ++i) {
    const TimeNs now = time_ns(i);
    // An open span's kind can change before it is charged (a probe
    // after a streak finds no work), moving a few microseconds from busy
    // to idle since the baseline: clamp rather than wrap.
    for (std::size_t k = 0; k < kNum; ++k) {
      d[i][k] = now[k] > time_base_[i][k] ? now[k] - time_base_[i][k] : 0;
    }
    sampled += d[i][kSampled];
    sampled_ns += d[i][kSampledWork];
  }
  Breakdown b;
  b.per_thread.resize(shared);
  for (unsigned i = 0; i <= shared; ++i) {
    const TimeNs& t = d[i];
    // Work: the slot's mean timed body times the bodies it ran — the
    // runtime-wide mean when the slot timed none — and never more than
    // the slot was busy. Exact when every body is timed.
    const std::uint64_t n = t[kSampled] > 0 ? t[kSampled] : sampled;
    const std::uint64_t ns = t[kSampled] > 0 ? t[kSampledWork] : sampled_ns;
    const double busy = static_cast<double>(t[kBusy]) * 1e-9;
    const double est =
        n > 0 ? static_cast<double>(ns) * 1e-9 *
                    (static_cast<double>(t[kTasks]) / static_cast<double>(n))
              : 0.0;
    const double work = std::min(est, busy);
    const double idle = static_cast<double>(t[kIdle]) * 1e-9;
    // Threads without a slot are reported under slot 0.
    ThreadBreakdown& tb = b.per_thread[i < shared ? i : 0];
    tb.work += work;
    tb.overhead += busy - work;
    tb.idle += idle;
    b.work += work;
    b.overhead += busy - work;
    b.idle += idle;
  }
  const double n = static_cast<double>(shared);
  b.avg_work = b.work / n;
  b.avg_overhead = b.overhead / n;
  b.avg_idle = b.idle / n;
  return b;
}

std::vector<TaskRecord> Profiler::merged_trace() const {
  std::vector<TaskRecord> all;
  std::size_t total = 0;
  for (const auto& tb : trace_) total += tb.records.size();
  all.reserve(total);
  for (const auto& tb : trace_) {
    all.insert(all.end(), tb.records.begin(), tb.records.end());
  }
  std::sort(all.begin(), all.end(),
            [](const TaskRecord& a, const TaskRecord& b) {
              return a.t_start < b.t_start;
            });
  return all;
}

void Profiler::reset() {
  for (unsigned i = 0; i < time_base_.size(); ++i) time_base_[i] = time_ns(i);
  for (auto& tb : trace_) tb.records.clear();
  edges_.clear();
  accesses_.clear();
  barriers_.clear();
  scope_clears_.clear();
  checked_ = {};
  // Quiesce the comm ring under its own lock: the request poller records
  // from arbitrary worker threads, so clearing without the lock (or not
  // clearing at all) would leave stale comm records attributed to flow
  // events of a graph that was just reset.
  SpinGuard g(comm_lock_);
  comms_.clear();
}

}  // namespace tdg
