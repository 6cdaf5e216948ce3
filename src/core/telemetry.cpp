#include "core/telemetry.hpp"

#include <algorithm>
#include <ostream>

namespace tdg {

TelemetryHub& TelemetryHub::instance() {
  static TelemetryHub hub;
  return hub;
}

std::shared_ptr<TelemetryRing> TelemetryHub::attach(int rank,
                                                    std::size_t capacity) {
  auto ring = std::make_shared<TelemetryRing>(capacity);
  std::lock_guard<std::mutex> g(mu_);
  rings_.emplace_back(rank, ring);
  return ring;
}

std::vector<RankTelemetry> TelemetryHub::collect() const {
  std::vector<std::pair<int, std::shared_ptr<TelemetryRing>>> rings;
  {
    std::lock_guard<std::mutex> g(mu_);
    rings = rings_;
  }
  std::vector<RankTelemetry> out;
  for (const auto& [rank, ring] : rings) {
    auto it = std::find_if(out.begin(), out.end(), [rank = rank](
                               const RankTelemetry& t) {
      return t.rank == rank;
    });
    if (it == out.end()) {
      out.push_back(RankTelemetry{rank, {}});
      it = out.end() - 1;
    }
    std::vector<MetricsSample> samples = ring->snapshot();
    it->samples.insert(it->samples.end(), samples.begin(), samples.end());
  }
  for (RankTelemetry& t : out) {
    std::stable_sort(t.samples.begin(), t.samples.end(),
                     [](const MetricsSample& a, const MetricsSample& b) {
                       return a.t_ns < b.t_ns;
                     });
  }
  std::sort(out.begin(), out.end(),
            [](const RankTelemetry& a, const RankTelemetry& b) {
              return a.rank < b.rank;
            });
  return out;
}

std::vector<RankTelemetry> TelemetryHub::drain() {
  std::vector<RankTelemetry> out = collect();
  std::lock_guard<std::mutex> g(mu_);
  rings_.clear();
  return out;
}

void TelemetryHub::write_json(std::ostream& os,
                              const std::vector<RankTelemetry>& telemetry) {
  os << "{\"ranks\":[";
  bool first_rank = true;
  for (const RankTelemetry& t : telemetry) {
    if (!first_rank) os << ',';
    first_rank = false;
    os << "\n{\"rank\":" << t.rank << ",\"samples\":[";
    bool first = true;
    for (const MetricsSample& s : t.samples) {
      if (!first) os << ',';
      first = false;
      os << "\n{\"t_ns\":" << s.t_ns;
      for (std::size_t i = 0; i < s.values.size(); ++i) {
        os << ",\"" << (*s.names)[i] << "\":" << s.values[i];
      }
      os << '}';
    }
    os << "]}";
  }
  os << "\n]}\n";
}

}  // namespace tdg
