// The one environment parser (core/env.hpp), driven through a substituted
// lookup: every knob's accepted spellings, its unset/empty default, and the
// one stderr line for a value it does not know. That line prints once per
// process for each name and value, so no unknown value repeats for a knob
// here and the suite passes once per process. The consumers' obedience to
// each knob is covered end to end in the suites that own them
// (VerifySampleEnv, RuntimeTrace, FaultSpec, Telemetry, RuntimeMetricsTest).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/env.hpp"

namespace tdg {
namespace {

using Vars = std::map<std::string, std::string>;

/// The field `knob` sets, rendered as text.
std::string reading(const EnvConfig& e, const std::string& knob) {
  if (knob == "TDG_METRICS") {
    if (!e.metrics) return "default";
    return e.metrics_dump ? "dump" : *e.metrics ? "on" : "off";
  }
  if (knob == "TDG_TRACE") return e.trace ? "on" : "off";
  if (knob == "TDG_TRACE_FILE") return e.trace_file;
  if (knob == "TDG_VERIFY") {
    if (!e.verify) return "default";
    switch (*e.verify) {
      case VerifyMode::Off: return "off";
      case VerifyMode::Sample: return "sample";
      case VerifyMode::Post: return "post";
      case VerifyMode::Strict: return "strict";
    }
  }
  if (knob == "TDG_TELEMETRY") {
    return e.telemetry.dump ? "dump" : e.telemetry.enabled ? "on" : "off";
  }
  if (knob == "TDG_TELEMETRY_FILE") return e.telemetry.path;
  if (knob == "TDG_TELEMETRY_PERIOD_MS") {
    return std::to_string(e.telemetry.period_ns);
  }
  if (knob == "TDG_FAULTS") return e.faults;
  ADD_FAILURE() << "no reading for " << knob;
  return "";
}

std::string unknown(const std::string& knob, const std::string& value,
                    const std::string& expected) {
  return "tdg: unknown " + knob + " value '" + value + "' (expected " +
         expected + "); ignored\n";
}

struct Row {
  Vars vars;          ///< the whole environment of this row
  std::string knob;   ///< the knob whose reading is checked
  std::string want;   ///< reading(parse_env(vars), knob)
  std::string err{};  ///< exact stderr of the parse
};

/// Parse each row's environment and check its reading and exact stderr.
void expect_rows(const std::vector<Row>& rows) {
  for (const Row& row : rows) {
    const auto lookup = [&row](const char* name) -> const char* {
      const auto it = row.vars.find(name);
      return it == row.vars.end() ? nullptr : it->second.c_str();
    };
    testing::internal::CaptureStderr();
    const EnvConfig env = parse_env(lookup);
    const std::string err = testing::internal::GetCapturedStderr();
    const auto set = row.vars.find(row.knob);
    const std::string where =
        row.knob +
        (set == row.vars.end() ? " unset" : "='" + set->second + "'");
    EXPECT_EQ(reading(env, row.knob), row.want) << where;
    EXPECT_EQ(err, row.err) << where;
  }
}

const std::string kSwitch = "off|0|false|on|1|true|dump";

TEST(Env, MetricsSwitch) {
  // Unknown, unset and empty leave Config::metrics in charge.
  expect_rows({
      {{}, "TDG_METRICS", "default"},
      {{{"TDG_METRICS", ""}}, "TDG_METRICS", "default"},
      {{{"TDG_METRICS", "off"}}, "TDG_METRICS", "off"},
      {{{"TDG_METRICS", "0"}}, "TDG_METRICS", "off"},
      {{{"TDG_METRICS", "false"}}, "TDG_METRICS", "off"},
      {{{"TDG_METRICS", "on"}}, "TDG_METRICS", "on"},
      {{{"TDG_METRICS", "1"}}, "TDG_METRICS", "on"},
      {{{"TDG_METRICS", "true"}}, "TDG_METRICS", "on"},
      {{{"TDG_METRICS", "dump"}}, "TDG_METRICS", "dump"},
      {{{"TDG_METRICS", "bogus"}}, "TDG_METRICS", "default",
       unknown("TDG_METRICS", "bogus", kSwitch)},
  });
}

TEST(Env, TraceModeAndFile) {
  // Unknown values, `tsv` among them, read as off, loudly.
  expect_rows({
      {{{"TDG_TRACE", "perfetto"}}, "TDG_TRACE", "on"},
      {{{"TDG_TRACE", "json"}}, "TDG_TRACE", "on"},
      {{{"TDG_TRACE", "tsv"}}, "TDG_TRACE", "off",
       unknown("TDG_TRACE", "tsv", "perfetto|json|off|0")},
      {{{"TDG_TRACE", "off"}}, "TDG_TRACE", "off"},
      {{{"TDG_TRACE", "0"}}, "TDG_TRACE", "off"},
      {{{"TDG_TRACE", ""}}, "TDG_TRACE", "off"},
      {{}, "TDG_TRACE", "off"},
      {{{"TDG_TRACE", "perfetto"}, {"TDG_TRACE_FILE", "/tmp/custom.json"}},
       "TDG_TRACE_FILE", "/tmp/custom.json"},
      {{}, "TDG_TRACE_FILE", ""},
  });
}

TEST(Env, VerifyMode) {
  // Unknown, unset and empty leave Config::verify in charge.
  expect_rows({
      {{}, "TDG_VERIFY", "default"},
      {{{"TDG_VERIFY", ""}}, "TDG_VERIFY", "default"},
      {{{"TDG_VERIFY", "off"}}, "TDG_VERIFY", "off"},
      {{{"TDG_VERIFY", "sample"}}, "TDG_VERIFY", "sample"},
      {{{"TDG_VERIFY", "post"}}, "TDG_VERIFY", "post"},
      {{{"TDG_VERIFY", "strict"}}, "TDG_VERIFY", "strict"},
      {{{"TDG_VERIFY", "bogus"}}, "TDG_VERIFY", "default",
       unknown("TDG_VERIFY", "bogus", "off|sample|post|strict")},
      {{{"TDG_VERIFY", "garbage"}}, "TDG_VERIFY", "default",
       unknown("TDG_VERIFY", "garbage", "off|sample|post|strict")},
  });
}

TEST(Env, TelemetrySwitchFileAndPeriod) {
  // Off unless asked for; the period is a positive whole number of ms.
  expect_rows({
      {{}, "TDG_TELEMETRY", "off"},
      {{{"TDG_TELEMETRY", ""}}, "TDG_TELEMETRY", "off"},
      {{{"TDG_TELEMETRY", "off"}}, "TDG_TELEMETRY", "off"},
      {{{"TDG_TELEMETRY", "0"}}, "TDG_TELEMETRY", "off"},
      {{{"TDG_TELEMETRY", "false"}}, "TDG_TELEMETRY", "off"},
      {{{"TDG_TELEMETRY", "on"}}, "TDG_TELEMETRY", "on"},
      {{{"TDG_TELEMETRY", "1"}}, "TDG_TELEMETRY", "on"},
      {{{"TDG_TELEMETRY", "true"}}, "TDG_TELEMETRY", "on"},
      {{{"TDG_TELEMETRY", "dump"}}, "TDG_TELEMETRY", "dump"},
      {{{"TDG_TELEMETRY", "bogus"}}, "TDG_TELEMETRY", "off",
       unknown("TDG_TELEMETRY", "bogus", kSwitch)},
      {{}, "TDG_TELEMETRY_FILE", "telemetry.json"},
      {{{"TDG_TELEMETRY_FILE", ""}}, "TDG_TELEMETRY_FILE", "telemetry.json"},
      {{{"TDG_TELEMETRY_FILE", "/tmp/t.json"}}, "TDG_TELEMETRY_FILE",
       "/tmp/t.json"},
      // TDG_TELEMETRY_PERIOD_MS: a positive whole number of milliseconds.
      {{}, "TDG_TELEMETRY_PERIOD_MS", "5000000"},
      {{{"TDG_TELEMETRY_PERIOD_MS", ""}}, "TDG_TELEMETRY_PERIOD_MS",
       "5000000"},
      {{{"TDG_TELEMETRY_PERIOD_MS", "1"}}, "TDG_TELEMETRY_PERIOD_MS",
       "1000000"},
      {{{"TDG_TELEMETRY_PERIOD_MS", "250"}}, "TDG_TELEMETRY_PERIOD_MS",
       "250000000"},
      {{{"TDG_TELEMETRY_PERIOD_MS", "abc"}}, "TDG_TELEMETRY_PERIOD_MS",
       "5000000", unknown("TDG_TELEMETRY_PERIOD_MS", "abc",
                          "a positive integer")},
      {{{"TDG_TELEMETRY_PERIOD_MS", "5ms"}}, "TDG_TELEMETRY_PERIOD_MS",
       "5000000", unknown("TDG_TELEMETRY_PERIOD_MS", "5ms",
                          "a positive integer")},
      {{{"TDG_TELEMETRY_PERIOD_MS", "0"}}, "TDG_TELEMETRY_PERIOD_MS",
       "5000000", unknown("TDG_TELEMETRY_PERIOD_MS", "0",
                          "a positive integer")},
      {{{"TDG_TELEMETRY_PERIOD_MS", "-5"}}, "TDG_TELEMETRY_PERIOD_MS",
       "5000000", unknown("TDG_TELEMETRY_PERIOD_MS", "-5",
                          "a positive integer")},
      {{{"TDG_TELEMETRY_PERIOD_MS", "99999999999999999999"}},
       "TDG_TELEMETRY_PERIOD_MS", "5000000",
       unknown("TDG_TELEMETRY_PERIOD_MS", "99999999999999999999",
               "a positive integer")},
  });
}

TEST(Env, FaultsStayRaw) {
  // parse_fault_spec owns the TDG_FAULTS format.
  expect_rows({
      {{}, "TDG_FAULTS", ""},
      {{{"TDG_FAULTS", "seed=7,loss=0.2"}}, "TDG_FAULTS", "seed=7,loss=0.2"},
  });
}

}  // namespace
}  // namespace tdg
