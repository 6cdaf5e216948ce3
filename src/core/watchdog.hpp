// Hang watchdog: a cooperative progress monitor for the runtime's blocking
// waits (taskwait, Comm::wait/waitall, RequestPoller drains).
//
// Design: there is no monitor thread. Every blocking wait in the runtime is
// a spin-with-yield loop already; arming the watchdog wraps that loop in a
// Scope whose poll() compares a progress epoch against a no-progress
// deadline. The epoch comes from a source the owner installs (for a
// runtime, the sum of its `exec.*` completion and retry counters) and is
// read only while a wait is armed, so the task path pays nothing for it.
// On expiry it assembles a diagnostic report from
// registered providers — live/ready task counts, unfulfilled detach events
// with owning task labels, pending MPI requests — and either throws
// DeadlineError or invokes a user callback (which may log and keep
// waiting). Polling is one epoch read plus a clock read; the disabled path
// is a single branch.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/error.hpp"

namespace tdg {

/// Watchdog knobs. A zero deadline disables the watchdog entirely.
struct WatchdogConfig {
  /// Seconds without observed progress before the watchdog trips. Must
  /// exceed the longest task body / injected fault delay; progress is a
  /// task completing (finished, failed or cancelled, detach fulfilment
  /// included) or a retry attempt, never anything inside user code.
  double deadline_seconds = 0.0;
  /// If set, invoked with the diagnostic report instead of throwing
  /// DeadlineError; the wait then continues (the timer re-arms), so a
  /// callback can log repeatedly or escalate on its own policy.
  std::function<void(const std::string& report)> on_deadline;
};

/// Progress monitor shared by one runtime and its attached waiters.
/// Thread-safety: the progress source must be callable from any waiting
/// thread; add/remove_diagnostic are mutex-guarded; configure() and
/// set_progress_source() must precede arming (they are read unsynchronized
/// by waiters).
class Watchdog {
 public:
  Watchdog() = default;
  explicit Watchdog(WatchdogConfig cfg) : cfg_(std::move(cfg)) {}
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  bool enabled() const noexcept { return cfg_.deadline_seconds > 0.0; }
  const WatchdogConfig& config() const noexcept { return cfg_; }
  /// Replace the configuration. Call only while no wait is armed.
  void configure(WatchdogConfig cfg) { cfg_ = std::move(cfg); }

  /// Label prepended to reports ("tenant 3" under a shared pool), so a
  /// hang report from one of many runtimes names which front end stalled.
  /// Set once at attach time, before any wait is armed.
  void set_name(std::string name) { name_ = std::move(name); }
  const std::string& name() const noexcept { return name_; }

  /// Monotone count of forward-progress events, read by armed waits only:
  /// any change since the last poll restarts the no-progress timer.
  using ProgressSource = std::function<std::uint64_t()>;
  void set_progress_source(ProgressSource fn) {
    progress_source_ = std::move(fn);
  }
  std::uint64_t progress_epoch() const {
    return progress_source_ ? progress_source_() : 0;
  }

  /// A diagnostic provider appends stuck-state details to the report.
  using Diagnostic = std::function<void(std::string& out)>;
  /// Register a provider; returns a token for remove_diagnostic.
  std::uint64_t add_diagnostic(Diagnostic fn);
  void remove_diagnostic(std::uint64_t token);

  /// Build the report the watchdog would emit right now (also used by
  /// deadline-aware waits that track their own timer).
  std::string build_report(const char* what, double stalled_seconds) const;

  /// An armed wait. Construct at the top of a blocking loop, call poll()
  /// each time the loop found nothing to do. A null/disabled watchdog
  /// makes every operation a no-op.
  class Scope {
   public:
    Scope(Watchdog* wd, const char* what);
    /// Throws DeadlineError (or invokes the configured callback) once
    /// `deadline_seconds` elapse with no progress-epoch change.
    void poll();

   private:
    Watchdog* wd_ = nullptr;  // null when disabled
    const char* what_ = "";
    std::uint64_t last_epoch_ = 0;
    double last_change_s_ = 0.0;
  };

 private:
  WatchdogConfig cfg_;
  std::string name_;
  ProgressSource progress_source_;
  mutable std::mutex mu_;  // diagnostics registry
  std::vector<std::pair<std::uint64_t, Diagnostic>> diags_;
  std::uint64_t next_token_ = 1;
};

}  // namespace tdg
