#include "core/profiler.hpp"

#include <algorithm>

namespace tdg {

Profiler::Profiler(MetricsRegistry& metrics, bool trace_enabled,
                   bool capture)
    : trace_enabled_(trace_enabled),
      capture_(capture),
      metrics_(metrics),
      time_{metrics.counter("time.work_ns"),
            metrics.counter("time.overhead_ns"),
            metrics.counter("time.idle_ns")},
      time_base_(metrics.num_shards() + 1),
      trace_(metrics.num_shards() + 1) {
  for (auto& tb : trace_) tb.records.reserve(1024);
  edges_.reserve(1024);
  if (capturing()) accesses_.reserve(1024);
}

Profiler::TimeNs Profiler::time_ns(unsigned thread) const {
  return {metrics_.read(time_[kWork], thread),
          metrics_.read(time_[kOverhead], thread),
          metrics_.read(time_[kIdle], thread)};
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
  Breakdown b;
  const unsigned shared = static_cast<unsigned>(time_base_.size()) - 1;
  b.per_thread.resize(shared);
  for (unsigned i = 0; i <= shared; ++i) {
    const TimeNs now = time_ns(i);
    auto secs = [&](std::size_t k) {
      return static_cast<double>(now[k] - time_base_[i][k]) * 1e-9;
    };
    // Threads without a slot are reported under slot 0.
    ThreadBreakdown& t = b.per_thread[i < shared ? i : 0];
    t.work += secs(kWork);
    t.overhead += secs(kOverhead);
    t.idle += secs(kIdle);
    b.work += secs(kWork);
    b.overhead += secs(kOverhead);
    b.idle += secs(kIdle);
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
