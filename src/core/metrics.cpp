#include "core/metrics.hpp"

#include <cmath>
#include <ostream>

#include "core/error.hpp"

namespace tdg {

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

MetricsRegistry::MetricsRegistry(unsigned nshards, bool enabled)
    : enabled_(enabled), shards_((nshards > 0 ? nshards : 1) + 1) {
  for (auto& sh : shards_) {
    sh.slots = std::make_unique<std::atomic<std::uint64_t>[]>(kMaxSlots);
    for (std::uint32_t i = 0; i < kMaxSlots; ++i) {
      sh.slots[i].store(0, std::memory_order_relaxed);
    }
  }
}

MetricsRegistry::Id MetricsRegistry::register_metric(std::string_view name,
                                                     MetricKind kind,
                                                     std::uint32_t nslots) {
  SpinGuard g(reg_lock_);
  for (const Info& info : infos_) {
    if (info.name == name) {
      TDG_REQUIRE(info.kind == kind,
                  "metric re-registered with a different kind");
      return Id{info.slot};
    }
  }
  TDG_REQUIRE(next_slot_ + nslots <= kMaxSlots,
              "metrics registry slot budget exhausted");
  Info info{std::string(name), kind, next_slot_, nslots};
  next_slot_ += nslots;
  infos_.push_back(std::move(info));
  return Id{infos_.back().slot};
}

MetricsRegistry::Id MetricsRegistry::counter(std::string_view name) {
  return register_metric(name, MetricKind::Counter, 1);
}

MetricsRegistry::Id MetricsRegistry::gauge(std::string_view name) {
  return register_metric(name, MetricKind::Gauge, 1);
}

MetricsRegistry::Id MetricsRegistry::histogram(std::string_view name) {
  return register_metric(name, MetricKind::Histogram, kHistBuckets + 1);
}

std::size_t MetricsRegistry::num_metrics() const {
  SpinGuard g(reg_lock_);
  return infos_.size();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::vector<Info> infos;
  {
    SpinGuard g(reg_lock_);
    infos = infos_;
  }
  MetricsSnapshot snap;
  snap.taken_ns = now_ns();
  snap.entries.reserve(infos.size());
  for (const Info& info : infos) {
    MetricsSnapshot::Entry e;
    e.name = info.name;
    e.kind = info.kind;
    switch (info.kind) {
      case MetricKind::Counter:
        e.value = sum_slot(info.slot);
        break;
      case MetricKind::Gauge:
        // Negative contributions wrap per-shard; the two's-complement sum
        // across shards is the true level.
        e.level = static_cast<std::int64_t>(sum_slot(info.slot));
        break;
      case MetricKind::Histogram: {
        e.buckets.resize(kHistBuckets);
        for (std::uint32_t b = 0; b < kHistBuckets; ++b) {
          e.buckets[b] = sum_slot(info.slot + b);
          e.value += e.buckets[b];
        }
        e.sum = sum_slot(info.slot + kHistBuckets);
        break;
      }
    }
    snap.entries.push_back(std::move(e));
  }
  return snap;
}

MetricsSample MetricsRegistry::sample() const {
  MetricsSample s;
  s.t_ns = now_ns();
  SpinGuard g(reg_lock_);
  for (const Info& info : infos_) {
    // Gauges wrap per shard; the two's-complement sum is the true level.
    if (info.kind != MetricKind::Histogram) {
      s.values.push_back(static_cast<std::int64_t>(sum_slot(info.slot)));
    }
  }
  // Registration only appends, so the cached list is current exactly when
  // its length matches.
  if (sample_names_ == nullptr || sample_names_->size() != s.values.size()) {
    auto names = std::make_shared<std::vector<std::string>>();
    for (const Info& info : infos_) {
      if (info.kind != MetricKind::Histogram) names->push_back(info.name);
    }
    sample_names_ = std::move(names);
  }
  s.names = sample_names_;
  return s;
}

std::int64_t MetricsSample::value(std::string_view name) const {
  if (names == nullptr) return 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if ((*names)[i] == name) return values[i];
  }
  return 0;
}

// ---------------------------------------------------------------------------
// MetricsSnapshot
// ---------------------------------------------------------------------------

const MetricsSnapshot::Entry* MetricsSnapshot::find(
    std::string_view name) const {
  for (const Entry& e : entries) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

std::uint64_t MetricsSnapshot::value(std::string_view name) const {
  const Entry* e = find(name);
  return e != nullptr ? e->value : 0;
}

double MetricsSnapshot::Entry::percentile(double p) const {
  if (value == 0 || buckets.empty()) return 0.0;
  if (p <= 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  const double target = p * static_cast<double>(value);
  std::uint64_t cum = 0;
  double hi = 0.0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) continue;
    // Bucket 0 holds zeros; bucket b >= 1 holds [2^(b-1), 2^b).
    const double lo = b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b) - 1);
    hi = b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b));
    const std::uint64_t prev = cum;
    cum += buckets[b];
    if (static_cast<double>(cum) >= target) {
      double frac = (target - static_cast<double>(prev)) /
                    static_cast<double>(buckets[b]);
      if (frac < 0.0) frac = 0.0;
      if (frac > 1.0) frac = 1.0;
      return lo + frac * (hi - lo);
    }
  }
  // Rounding fell off the end: the upper edge of the last populated bucket.
  return hi;
}

MetricsSnapshot MetricsSnapshot::delta(const MetricsSnapshot& newer,
                                       const MetricsSnapshot& older) {
  MetricsSnapshot d;
  d.taken_ns = newer.taken_ns;
  d.entries.reserve(newer.entries.size());
  for (const Entry& n : newer.entries) {
    Entry e = n;
    if (const Entry* o = older.find(n.name); o != nullptr) {
      e.value -= o->value;
      e.level -= o->level;
      e.sum -= o->sum;
      for (std::size_t b = 0;
           b < e.buckets.size() && b < o->buckets.size(); ++b) {
        e.buckets[b] -= o->buckets[b];
      }
    }
    d.entries.push_back(std::move(e));
  }
  return d;
}

MetricsSnapshot MetricsSnapshot::merge(const MetricsSnapshot& a,
                                       const MetricsSnapshot& b) {
  MetricsSnapshot m = a;
  if (b.taken_ns > m.taken_ns) m.taken_ns = b.taken_ns;
  for (const Entry& eb : b.entries) {
    Entry* ea = nullptr;
    for (Entry& cand : m.entries) {
      if (cand.name == eb.name) {
        ea = &cand;
        break;
      }
    }
    if (ea == nullptr) {
      m.entries.push_back(eb);
      continue;
    }
    ea->value += eb.value;
    ea->level += eb.level;
    ea->sum += eb.sum;
    if (ea->buckets.size() < eb.buckets.size()) {
      ea->buckets.resize(eb.buckets.size(), 0);
    }
    for (std::size_t i = 0; i < eb.buckets.size(); ++i) {
      ea->buckets[i] += eb.buckets[i];
    }
  }
  return m;
}

void MetricsSnapshot::write_text(std::ostream& os, bool nonzero_only,
                                 int tenant) const {
  std::string dim;
  if (tenant >= 0) {
    dim = "{tenant=" + std::to_string(tenant) + "}";
  }
  for (const Entry& e : entries) {
    if (nonzero_only && e.value == 0 && e.level == 0) continue;
    os << "  " << e.name << dim;
    for (std::size_t pad = e.name.size() + dim.size(); pad < 32; ++pad) {
      os << ' ';
    }
    switch (e.kind) {
      case MetricKind::Counter:
        os << e.value;
        break;
      case MetricKind::Gauge:
        os << e.level;
        break;
      case MetricKind::Histogram: {
        os << "count=" << e.value << " mean=" << e.mean();
        if (e.value > 0) {
          os << " p50=" << e.percentile(0.50) << " p95=" << e.percentile(0.95)
             << " p99=" << e.percentile(0.99);
        }
        os << " buckets=[";
        bool first = true;
        for (std::size_t b = 0; b < e.buckets.size(); ++b) {
          if (e.buckets[b] == 0) continue;
          if (!first) os << ' ';
          first = false;
          os << b << ':' << e.buckets[b];
        }
        os << ']';
        break;
      }
    }
    os << '\n';
  }
}

void MetricsSnapshot::write_json(std::ostream& os, int tenant) const {
  os << "{\"taken_ns\":" << taken_ns;
  if (tenant >= 0) os << ",\"tenant\":" << tenant;
  os << ",\"metrics\":{";
  bool first_entry = true;
  for (const Entry& e : entries) {
    if (!first_entry) os << ',';
    first_entry = false;
    os << '"' << e.name << "\":{";
    switch (e.kind) {
      case MetricKind::Counter:
        os << "\"kind\":\"counter\",\"value\":" << e.value;
        break;
      case MetricKind::Gauge:
        os << "\"kind\":\"gauge\",\"level\":" << e.level;
        break;
      case MetricKind::Histogram: {
        os << "\"kind\":\"histogram\",\"count\":" << e.value
           << ",\"sum\":" << e.sum << ",\"p50\":" << e.percentile(0.50)
           << ",\"p95\":" << e.percentile(0.95)
           << ",\"p99\":" << e.percentile(0.99) << ",\"buckets\":[";
        for (std::size_t b = 0; b < e.buckets.size(); ++b) {
          if (b != 0) os << ',';
          os << e.buckets[b];
        }
        os << ']';
        break;
      }
    }
    os << '}';
  }
  os << "}}";
}

}  // namespace tdg
