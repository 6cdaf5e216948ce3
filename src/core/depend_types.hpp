// OpenMP-style dependence descriptors (the `depend` clause).
#pragma once

#include <cstdint>
#include <vector>

namespace tdg {

/// Dependence type of one `depend` clause item, matching OpenMP 5.1
/// semantics for `in`, `out`, `inout` and `inoutset`.
enum class DependType : std::uint8_t {
  In,        ///< read access: ordered after the last modifying access
  Out,       ///< write access: ordered after last modification and all reads
  InOut,     ///< read-write access: same ordering as Out
  InOutSet,  ///< concurrent-write set: mutually unordered within one
             ///< generation, ordered against any other access type
};

/// Clause keyword of `t`, as written in a depend clause.
constexpr const char* dep_type_name(DependType t) {
  switch (t) {
    case DependType::In: return "in";
    case DependType::Out: return "out";
    case DependType::InOut: return "inout";
    case DependType::InOutSet: return "inoutset";
  }
  return "?";
}

/// One item of a task's depend clause: a base address plus an access type.
/// Discovery matches on address identity only (OpenMP list-item base rule),
/// exactly as in the paper's applications which depend on block base
/// addresses. `bytes` is an optional extent annotation consumed by the
/// verifier's cross-base range-overlap check and by the clause lint's
/// overlapping-range check; 0 means "identity only" and keeps the legacy
/// aggregate initializers `{addr, type}` valid.
struct Depend {
  const void* addr = nullptr;
  DependType type = DependType::In;
  std::uint32_t bytes = 0;

  static constexpr Depend in(const void* a) { return {a, DependType::In}; }
  static constexpr Depend out(const void* a) { return {a, DependType::Out}; }
  static constexpr Depend inout(const void* a) {
    return {a, DependType::InOut};
  }
  static constexpr Depend inoutset(const void* a) {
    return {a, DependType::InOutSet};
  }
  static constexpr Depend in(const void* a, std::uint32_t n) {
    return {a, DependType::In, n};
  }
  static constexpr Depend out(const void* a, std::uint32_t n) {
    return {a, DependType::Out, n};
  }
  static constexpr Depend inout(const void* a, std::uint32_t n) {
    return {a, DependType::InOut, n};
  }
  static constexpr Depend inoutset(const void* a, std::uint32_t n) {
    return {a, DependType::InOutSet, n};
  }

  friend bool operator==(const Depend&, const Depend&) = default;
};

/// Reusable buffer for building depend lists without per-task allocation.
using DependList = std::vector<Depend>;

}  // namespace tdg
