// Live telemetry aggregation: a periodic sampler (driven from the same
// polling hook as the heartbeat detector) samples each rank's metrics
// registry — every counter and gauge, by name — into a fixed-capacity
// ring; the rings are registered with a process-wide hub — the in-process
// analogue of piggybacking samples to rank 0 — which Universe::run drains
// into Report::telemetry and, when enabled, into telemetry.json on exit.
// The watchdog path dumps the same file on a hang, so chaos-soak runs show
// *when* retransmits and poisonings happened, not just final counts. Each
// JSON sample is {"t_ns": ..., "<metric name>": value, ...}.
//
// Configured by TDG_TELEMETRY* (parsed in core/env.hpp).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/common.hpp"
#include "core/metrics.hpp"

namespace tdg {

struct TelemetryConfig {
  bool enabled = false;
  bool dump = false;  ///< write the JSON file on universe exit / hang
  std::uint64_t period_ns = 5'000'000;  ///< sampling period (5 ms)
  std::string path = "telemetry.json";
};

/// Samples a rank's ring keeps before overwriting the oldest.
inline constexpr std::size_t kTelemetryRingCapacity = 1024;

/// Fixed-capacity sample ring: the oldest sample is overwritten once full,
/// bounding memory like the paper bounds trace size by DRAM. push() is
/// serialized by the sampler's time gate; snapshot() may race it and takes
/// the same lock.
class TelemetryRing {
 public:
  explicit TelemetryRing(std::size_t capacity)
      : buf_(capacity > 0 ? capacity : 1) {}

  void push(MetricsSample s) {
    SpinGuard g(mu_);
    buf_[head_] = std::move(s);
    head_ = (head_ + 1) % buf_.size();
    if (size_ < buf_.size()) ++size_;
  }

  /// Samples oldest to newest.
  std::vector<MetricsSample> snapshot() const {
    SpinGuard g(mu_);
    std::vector<MetricsSample> out;
    out.reserve(size_);
    const std::size_t start = (head_ + buf_.size() - size_) % buf_.size();
    for (std::size_t i = 0; i < size_; ++i) {
      out.push_back(buf_[(start + i) % buf_.size()]);
    }
    return out;
  }

 private:
  mutable SpinLock mu_;
  std::vector<MetricsSample> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// One rank's aggregated time-series.
struct RankTelemetry {
  int rank = 0;
  std::vector<MetricsSample> samples;  ///< sorted by t_ns
};

/// Process-wide aggregation point. Each rank's sampler attaches its ring
/// here (ranks are threads of one process, so "piggybacking to rank 0"
/// is a registry lookup); Universe::run drains everything on exit, and
/// the watchdog dump path collects without detaching.
class TelemetryHub {
 public:
  static TelemetryHub& instance();

  std::shared_ptr<TelemetryRing> attach(int rank, std::size_t capacity);

  /// Per-rank series, merged across multiple rings of the same rank and
  /// sorted by time. Rings stay attached.
  std::vector<RankTelemetry> collect() const;
  /// collect(), then detach every ring — successive universes in one
  /// process must not inherit each other's series.
  std::vector<RankTelemetry> drain();

  static void write_json(std::ostream& os,
                         const std::vector<RankTelemetry>& telemetry);

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<int, std::shared_ptr<TelemetryRing>>> rings_;
};

}  // namespace tdg
