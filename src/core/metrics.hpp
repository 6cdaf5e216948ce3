// Unified metrics registry for the tdg runtime (counters, gauges, log2
// histograms), replacing the scattered ad-hoc counters with one namespace
// that discovery, scheduling, persistent replay and the MPI layer all
// write into.
//
// It is the runtime's one counter store: RuntimeStats, the profiler's
// work/overhead/idle breakdown and the live-telemetry series are all read
// from it. Counters and gauges always count; the enabled flag gates only
// histogram samples (and, in the runtime, the clock stamps feeding them;
// Runtime::Config::metrics, overridden by TDG_METRICS via core/env.hpp).
//
// Design: per-thread shards (cache-line aligned, one slot array per
// shard), single-writer by contract. Shards 0..n-1 belong to the n thread
// slots of the owning runtime (0 the producer, k+1 pool worker k); only
// that thread writes them, so an add is a relaxed load and store on a line
// no other core writes, with no locked instruction. Every other hint —
// external threads, nested runtimes — lands on one extra shared shard,
// which adds with an RMW. Slots are pre-allocated at construction
// (kMaxSlots per shard) and never reallocated, so metrics may be
// registered while workers are running — registration only bumps a cursor
// under a spin lock. Reads (snapshot) sum across shards; they are
// racy-by-design against concurrent writers, which is fine for monitoring.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/common.hpp"

namespace tdg {

enum class MetricKind : std::uint8_t { Counter, Gauge, Histogram };

/// Point-in-time copy of every registered metric, summed across shards.
struct MetricsSnapshot {
  struct Entry {
    std::string name;
    MetricKind kind = MetricKind::Counter;
    std::uint64_t value = 0;  ///< counter total / histogram sample count
    std::int64_t level = 0;   ///< gauge level (delta: change between snaps)
    std::uint64_t sum = 0;    ///< histogram: sum of observed values
    /// Histogram: buckets[i] counts samples whose bit width is i, i.e.
    /// bucket 0 holds zeros and bucket i>=1 holds values in [2^(i-1), 2^i).
    /// The last bucket absorbs everything wider.
    std::vector<std::uint64_t> buckets;

    double mean() const {
      return value > 0 ? static_cast<double>(sum) / static_cast<double>(value)
                       : 0.0;
    }

    /// Approximate percentile (p in (0, 1]) from the log2 buckets: walk
    /// the cumulative counts to the target rank and interpolate linearly
    /// inside the bucket's [2^(i-1), 2^i) value range. Exact for zeros
    /// (bucket 0); within a factor of 2 otherwise, which is what a
    /// log-scale latency histogram can promise.
    double percentile(double p) const;
  };

  std::uint64_t taken_ns = 0;
  std::vector<Entry> entries;

  const Entry* find(std::string_view name) const;
  /// Counter/histogram total by name; 0 when absent.
  std::uint64_t value(std::string_view name) const;

  /// Per-metric difference `newer - older`, matched by name. Metrics
  /// absent from `older` keep their `newer` values; gauges report the
  /// level change.
  static MetricsSnapshot delta(const MetricsSnapshot& newer,
                               const MetricsSnapshot& older);

  /// Element-wise sum of two snapshots, matched by name (union of both
  /// entry sets). Used by a shared WorkerPool to fold detaching tenants'
  /// final counters into the aggregate its teardown dump prints, keeping
  /// untagged totals available next to the per-tenant tagged sections.
  static MetricsSnapshot merge(const MetricsSnapshot& a,
                               const MetricsSnapshot& b);

  /// Human-readable table. With `nonzero_only`, rows whose value, level
  /// and histogram count are all zero are skipped (watchdog reports).
  /// A non-negative `tenant` appends a `{tenant=<id>}` dimension to every
  /// metric name (shared-pool per-tenant dumps); -1 keeps the plain names.
  void write_text(std::ostream& os, bool nonzero_only = false,
                  int tenant = -1) const;
  /// JSON object: {"taken_ns": ..., "metrics": {"name": {...}, ...}}.
  /// A non-negative `tenant` adds a top-level "tenant" field.
  void write_json(std::ostream& os, int tenant = -1) const;
};

/// The registry's counter and gauge values at one instant, in registration
/// order: one point of a live-telemetry series. Registration only appends,
/// so the names of an older sample are a prefix of a newer sample's.
struct MetricsSample {
  std::uint64_t t_ns = 0;
  std::shared_ptr<const std::vector<std::string>> names;
  std::vector<std::int64_t> values;  ///< values[i] is metric (*names)[i]

  /// Value by metric name; 0 when absent.
  std::int64_t value(std::string_view name) const;
};

class MetricsRegistry {
 public:
  /// log2 buckets per histogram (bit widths 0..kHistBuckets-1, clamped).
  static constexpr std::uint32_t kHistBuckets = 32;
  /// Slot budget per shard; a histogram consumes kHistBuckets + 1 slots.
  static constexpr std::uint32_t kMaxSlots = 256;

  /// Opaque handle to a registered metric. Value-type, cheap to copy; a
  /// default-constructed id is invalid and all operations on it no-op.
  struct Id {
    std::uint32_t slot = UINT32_MAX;
    bool valid() const { return slot != UINT32_MAX; }
  };

  /// `nshards` single-writer shards plus the shared one.
  explicit MetricsRegistry(unsigned nshards, bool enabled = true);
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Register (or look up) a metric. Re-registering an existing name with
  /// the same kind returns the same id, so independently-constructed
  /// components (e.g. successive RequestPollers) share one counter.
  Id counter(std::string_view name);
  Id gauge(std::string_view name);
  Id histogram(std::string_view name);

  bool enabled() const { return enabled_; }

  /// Increment a counter. `shard` is the calling thread's own slot: a
  /// shard below num_shards() must be written by one thread only, and any
  /// other hint lands on the shared shard.
  void add(Id id, std::uint64_t v = 1, unsigned shard = 0) {
    if (!id.valid()) return;
    bump(shard, id.slot, v);
  }

  /// Move a gauge up or down (levels are summed across shards, so
  /// matched +1/-1 pairs from different threads still cancel).
  void gauge_add(Id id, std::int64_t v, unsigned shard = 0) {
    if (!id.valid()) return;
    bump(shard, id.slot, static_cast<std::uint64_t>(v));
  }

  /// Record one histogram sample (dropped while disabled).
  void observe(Id id, std::uint64_t value, unsigned shard = 0) {
    if (!enabled() || !id.valid()) return;
    bump(shard, id.slot + bucket_of(value), 1);
    bump(shard, id.slot + kHistBuckets, value);
  }

  /// Bucket index for a sample: its bit width, clamped to the last bucket
  /// (bucket 0 = zeros, bucket i = [2^(i-1), 2^i)).
  static std::uint32_t bucket_of(std::uint64_t value) {
    return std::min<std::uint32_t>(
        static_cast<std::uint32_t>(std::bit_width(value)), kHistBuckets - 1);
  }

  /// Sum one registered counter/gauge slot across shards — a cheap
  /// single-metric read (no snapshot allocation).
  std::uint64_t read(Id id) const {
    return id.valid() ? sum_slot(id.slot) : 0;
  }
  /// One shard's share of a counter (per-thread breakdowns); shard
  /// num_shards() is the shared one.
  std::uint64_t read(Id id, unsigned shard) const {
    if (!id.valid() || shard >= shards_.size()) return 0;
    return shards_[shard].slots[id.slot].load(std::memory_order_relaxed);
  }

  MetricsSnapshot snapshot() const;
  /// Every counter and gauge, summed across shards (no histograms).
  MetricsSample sample() const;

  /// Single-writer shards (the thread slots); the shared shard comes on
  /// top.
  unsigned num_shards() const {
    return static_cast<unsigned>(shards_.size()) - 1;
  }
  std::size_t num_metrics() const;

 private:
  struct alignas(kCacheLine) Shard {
    std::unique_ptr<std::atomic<std::uint64_t>[]> slots;
  };
  struct Info {
    std::string name;
    MetricKind kind;
    std::uint32_t slot;
    std::uint32_t nslots;
  };

  Id register_metric(std::string_view name, MetricKind kind,
                     std::uint32_t nslots);

  void bump(unsigned shard, std::uint32_t s, std::uint64_t v) {
    const unsigned shared = num_shards();
    if (shard < shared) {
      // Single writer: no other thread stores here, so load + store
      // cannot lose an update, and readers see whole values.
      std::atomic<std::uint64_t>& a = shards_[shard].slots[s];
      a.store(a.load(std::memory_order_relaxed) + v,
              std::memory_order_relaxed);
    } else {
      shards_[shared].slots[s].fetch_add(v, std::memory_order_relaxed);
    }
  }

  std::uint64_t sum_slot(std::uint32_t s) const {
    std::uint64_t total = 0;
    for (const Shard& sh : shards_) {
      total += sh.slots[s].load(std::memory_order_relaxed);
    }
    return total;
  }

  const bool enabled_;
  std::vector<Shard> shards_;  ///< the thread shards, then the shared one
  mutable SpinLock reg_lock_;  // guards the members below
  std::vector<Info> infos_;
  std::uint32_t next_slot_ = 0;
  /// Counter and gauge names in sample() order, shared by the samples and
  /// rebuilt by sample() after a registration.
  mutable std::shared_ptr<const std::vector<std::string>> sample_names_;
};

}  // namespace tdg
