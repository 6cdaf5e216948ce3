// The one reader of the TDG_* environment variables (README "Environment
// variables" lists them). read_env() runs where a Runtime, a shared
// WorkerPool or a Universe run is constructed, never cached, so a
// variable set between two runtimes applies to the second.
// Unset and empty values change nothing; a value a knob does not know
// prints one stderr line (once per process) and leaves the Config field
// or default in charge.
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "core/telemetry.hpp"
#include "core/verify.hpp"

namespace tdg {

struct EnvConfig {
  std::optional<bool> metrics;  ///< TDG_METRICS, over Config::metrics
  bool metrics_dump = false;    ///< TDG_METRICS=dump: teardown reports
  bool trace = false;           ///< TDG_TRACE forces Config::trace on
  std::string trace_file;       ///< TDG_TRACE_FILE; empty = tdg_trace.json
  std::optional<VerifyMode> verify;  ///< TDG_VERIFY, over Config::verify
  TelemetryConfig telemetry;    ///< TDG_TELEMETRY, _FILE, _PERIOD_MS
  std::string faults;  ///< TDG_FAULTS, raw: parse_fault_spec owns it
};

/// Maps a variable name to its value, nullptr when unset.
using EnvLookup = std::function<const char*(const char*)>;

/// Parse every knob through `lookup` (tests substitute a fake).
EnvConfig parse_env(const EnvLookup& lookup);
/// parse_env over the process environment.
EnvConfig read_env();

}  // namespace tdg
