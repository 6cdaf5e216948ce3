#include "core/env.hpp"

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <mutex>
#include <set>
#include <string_view>
#include <utility>

namespace tdg {

namespace {

enum class Switch { Off, On, Dump };

template <typename T>
using Spellings = std::initializer_list<std::pair<std::string_view, T>>;

const Spellings<Switch> kSwitch = {
    {"off", Switch::Off}, {"0", Switch::Off},   {"false", Switch::Off},
    {"on", Switch::On},   {"1", Switch::On},    {"true", Switch::On},
    {"dump", Switch::Dump}};
const Spellings<bool> kTrace = {
    {"perfetto", true}, {"json", true}, {"off", false}, {"0", false}};
const Spellings<VerifyMode> kVerify = {
    {"off", VerifyMode::Off}, {"sample", VerifyMode::Sample},
    {"post", VerifyMode::Post}, {"strict", VerifyMode::Strict}};

/// Prints once per (name, value) and process: a Universe run reads the
/// environment once per rank, and the reader should see its typo once.
void warn_unknown(const char* name, const char* value,
                  const std::string& expected) {
  static std::mutex mu;
  static std::set<std::pair<std::string, std::string>> warned;
  const std::lock_guard<std::mutex> lock(mu);
  if (!warned.emplace(name, value).second) return;
  std::fprintf(stderr, "tdg: unknown %s value '%s' (expected %s); ignored\n",
               name, value, expected.c_str());
}

/// The table's reading of `name`: nullopt when unset or empty, and after
/// the one warning line when the table does not know the value.
template <typename T>
std::optional<T> mode(const EnvLookup& lookup, const char* name,
                      Spellings<T> table) {
  const char* v = lookup(name);
  if (v == nullptr || *v == '\0') return std::nullopt;
  std::string expected;
  for (const auto& [text, value] : table) {
    if (text == v) return value;
    expected += (expected.empty() ? "" : "|") + std::string(text);
  }
  warn_unknown(name, v, expected);
  return std::nullopt;
}

/// A positive whole number of milliseconds, in nanoseconds.
std::optional<std::uint64_t> period_ns(const EnvLookup& lookup,
                                       const char* name) {
  const char* v = lookup(name);
  if (v == nullptr || *v == '\0') return std::nullopt;
  const char* end = v + std::strlen(v);
  std::uint64_t ms = 0;
  const auto [stop, ec] = std::from_chars(v, end, ms);
  if (ec == std::errc{} && stop == end && ms > 0 &&
      ms <= UINT64_MAX / 1'000'000) {
    return ms * 1'000'000;
  }
  warn_unknown(name, v, "a positive integer");
  return std::nullopt;
}

}  // namespace

EnvConfig parse_env(const EnvLookup& lookup) {
  EnvConfig env;
  if (const auto m = mode(lookup, "TDG_METRICS", kSwitch)) {
    env.metrics = *m != Switch::Off;
    env.metrics_dump = *m == Switch::Dump;
  }
  env.trace = mode(lookup, "TDG_TRACE", kTrace).value_or(false);
  if (const char* path = lookup("TDG_TRACE_FILE")) env.trace_file = path;
  env.verify = mode(lookup, "TDG_VERIFY", kVerify);
  if (const auto t = mode(lookup, "TDG_TELEMETRY", kSwitch)) {
    env.telemetry.enabled = *t != Switch::Off;
    env.telemetry.dump = *t == Switch::Dump;
  }
  if (const char* path = lookup("TDG_TELEMETRY_FILE");
      path != nullptr && *path != '\0') {
    env.telemetry.path = path;
  }
  if (const auto ns = period_ns(lookup, "TDG_TELEMETRY_PERIOD_MS")) {
    env.telemetry.period_ns = *ns;
  }
  if (const char* spec = lookup("TDG_FAULTS")) env.faults = spec;
  return env;
}

EnvConfig read_env() {
  return parse_env([](const char* name) -> const char* {
    return std::getenv(name);
  });
}

}  // namespace tdg
